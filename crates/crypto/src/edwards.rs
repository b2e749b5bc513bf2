//! The Ed25519 twisted Edwards group: −x² + y² = 1 + d·x²y² over
//! GF(2²⁵⁵ − 19), used as the prime-order group for the VOPRF in
//! [`crate::oprf`] (the cryptographic heart of Privacy Pass) and, through
//! its fixed-base table, for X25519 public keys in [`crate::x25519`].
//!
//! Points are held in extended homogeneous coordinates (X : Y : Z : T) with
//! x = X/Z, y = Y/Z, T = XY/Z. Addition uses the complete `add-2008-hwcd-3`
//! formulas; doubling uses `dbl-2008-hwcd`. An addition's second operand is
//! held in the cached form (Y − X, Y + X, 2d·T, 2Z), and its result stays a
//! `CompletedPoint` until the caller knows which coordinates it needs.
//!
//! Scalar multiplication recodes the scalar into 64 signed radix-16 digits
//! in [−8, 8] and adds one table entry per digit:
//!
//! * [`EdwardsPoint::mul`] builds a per-call table of 1·P … 8·P and does
//!   four doublings per digit;
//! * [`EdwardsPoint::mul_base`] reads a process-wide table of
//!   (1…8)·16ⁱ·B for i < 64 (512 cached points, 80 KiB, built on first use)
//!   and does no doublings at all;
//! * [`EdwardsPoint::double_scalar_mul`] interleaves two per-call tables so
//!   `a·P + b·Q` shares one chain of doublings (Straus).
//!
//! Digits select table entries by index and zero digits skip their
//! addition, so all three are variable-time — see the crate-level note on
//! timing.

use crate::field25519::FieldElement;
use crate::scalar::Scalar;
use crate::sha256::sha256_multi;
use crate::{CryptoError, Result};
use std::sync::OnceLock;

/// Length of a compressed point.
pub const POINT_LEN: usize = 32;

/// Curve constant d = −121665/121666.
fn d() -> &'static FieldElement {
    static D: OnceLock<FieldElement> = OnceLock::new();
    D.get_or_init(|| {
        FieldElement::from_u64(121665)
            .neg()
            .mul(&FieldElement::from_u64(121666).invert())
    })
}

/// 2d, used in point addition.
fn d2() -> &'static FieldElement {
    static D2: OnceLock<FieldElement> = OnceLock::new();
    D2.get_or_init(|| d().add(d()))
}

/// A point on the Ed25519 curve, in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub struct EdwardsPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

impl EdwardsPoint {
    /// The identity (neutral) element.
    pub fn identity() -> Self {
        EdwardsPoint {
            x: FieldElement::ZERO,
            y: FieldElement::ONE,
            z: FieldElement::ONE,
            t: FieldElement::ZERO,
        }
    }

    /// The standard basepoint B (y = 4/5, even x).
    pub fn basepoint() -> Self {
        static B: OnceLock<EdwardsPoint> = OnceLock::new();
        *B.get_or_init(|| {
            let y = FieldElement::from_u64(4).mul(&FieldElement::from_u64(5).invert());
            let mut enc = y.to_bytes();
            enc[31] &= 0x7f; // sign bit 0: even x
            EdwardsPoint::decompress(&enc).expect("basepoint decompression")
        })
    }

    /// Is this the identity?
    pub fn is_identity(&self) -> bool {
        self.x.is_zero() && self.y.ct_eq(&self.z)
    }

    /// Group equality (projective cross-multiplication).
    pub fn eq_point(&self, other: &Self) -> bool {
        self.x.mul(&other.z).ct_eq(&other.x.mul(&self.z))
            && self.y.mul(&other.z).ct_eq(&other.y.mul(&self.z))
    }

    /// Point negation.
    pub fn neg(&self) -> Self {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Point addition (`add-2008-hwcd-3`, complete for a = −1).
    pub fn add(&self, other: &Self) -> Self {
        self.add_cached(&other.to_cached()).to_extended()
    }

    /// Point subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        self.sub_cached(&other.to_cached()).to_extended()
    }

    /// Point doubling (`dbl-2008-hwcd` with a = −1).
    pub fn double(&self) -> Self {
        self.mul_by_pow2(1)
    }

    /// `2ᵏ·P` for `k ≥ 1`: the intermediate doublings skip the T coordinate,
    /// which doubling does not read.
    fn mul_by_pow2(&self, k: u32) -> Self {
        debug_assert!(k >= 1);
        let mut c = CompletedPoint::double(&self.x, &self.y, &self.z);
        for _ in 1..k {
            c = CompletedPoint::double(&c.e.mul(&c.f), &c.g.mul(&c.h), &c.f.mul(&c.g));
        }
        c.to_extended()
    }

    fn to_cached(self) -> CachedPoint {
        CachedPoint {
            y_minus_x: self.y.sub(&self.x),
            y_plus_x: self.y.add(&self.x),
            t2d: self.t.mul(d2()),
            z2: self.z.add(&self.z),
        }
    }

    fn add_cached(&self, q: &CachedPoint) -> CompletedPoint {
        let a = self.y.sub(&self.x).mul(&q.y_minus_x);
        let b = self.y.add(&self.x).mul(&q.y_plus_x);
        let c = self.t.mul(&q.t2d);
        let d = self.z.mul(&q.z2);
        CompletedPoint {
            e: b.sub(&a),
            f: d.sub(&c),
            g: d.add(&c),
            h: b.add(&a),
        }
    }

    /// `self − q`: [`Self::add_cached`] against −q = (−X, Y, Z, −T), whose
    /// cached form swaps `y_minus_x`/`y_plus_x` and negates `t2d`.
    fn sub_cached(&self, q: &CachedPoint) -> CompletedPoint {
        let a = self.y.sub(&self.x).mul(&q.y_plus_x);
        let b = self.y.add(&self.x).mul(&q.y_minus_x);
        let c = self.t.mul(&q.t2d);
        let d = self.z.mul(&q.z2);
        CompletedPoint {
            e: b.sub(&a),
            f: d.add(&c),
            g: d.sub(&c),
            h: b.add(&a),
        }
    }

    /// Scalar multiplication `k·P` (signed radix-16 window, variable-time).
    pub fn mul(&self, k: &Scalar) -> Self {
        Self::straus([(k, self)])
    }

    /// `a·P + b·Q` with one shared chain of doublings (Straus).
    pub fn double_scalar_mul(a: &Scalar, p: &Self, b: &Scalar, q: &Self) -> Self {
        Self::straus([(a, p), (b, q)])
    }

    /// `Σ kᵢ·Pᵢ`: per-point tables of 1·Pᵢ … 8·Pᵢ, then for each radix-16
    /// digit from the top, four doublings and one table addition per term.
    fn straus<const N: usize>(terms: [(&Scalar, &Self); N]) -> Self {
        let terms = terms.map(|(k, p)| (radix16(&k.to_bytes()), LookupTable::new(p)));
        let mut acc = EdwardsPoint::identity();
        for i in (0..64).rev() {
            if i != 63 {
                acc = acc.mul_by_pow2(4);
            }
            for (digits, table) in &terms {
                acc = table.add_digit(&acc, digits[i]);
            }
        }
        acc
    }

    /// `k·B` for the standard basepoint, from the fixed-base table.
    pub fn mul_base(k: &Scalar) -> Self {
        Self::mul_base_bytes(&k.to_bytes())
    }

    /// `k·B` for a little-endian integer `k < 2²⁵⁵` (bit 255 clear), not
    /// reduced modulo ℓ — the form clamped X25519 scalars arrive in.
    pub(crate) fn mul_base_bytes(k: &[u8; 32]) -> Self {
        let tables = base_tables();
        let digits = radix16(k);
        let mut acc = EdwardsPoint::identity();
        for (table, digit) in tables.iter().zip(digits) {
            acc = table.add_digit(&acc, digit);
        }
        acc
    }

    /// The birational map to Curve25519's Montgomery u-line,
    /// u = (1 + y)/(1 − y) = (Z + Y)/(Z − Y), encoded as X25519 encodes u.
    /// The identity (Z = Y) maps to u = 0, as the X25519 ladder returns.
    pub(crate) fn to_montgomery_u(self) -> [u8; 32] {
        let num = self.z.add(&self.y);
        let den = self.z.sub(&self.y);
        num.mul(&den.invert()).to_bytes()
    }

    /// Multiply by the cofactor 8 (three doublings), mapping any curve point
    /// into the prime-order subgroup.
    pub fn mul_by_cofactor(&self) -> Self {
        self.mul_by_pow2(3)
    }

    /// Compress to 32 bytes: the y-coordinate with the parity of x in the
    /// top bit.
    pub fn compress(&self) -> [u8; POINT_LEN] {
        self.compress_with(&self.z.invert())
    }

    /// Compress several points with one shared field inversion
    /// (Montgomery's trick: 3(N − 1) multiplications replace N − 1
    /// inversions).
    pub(crate) fn compress_batch<const N: usize>(points: [&Self; N]) -> [[u8; POINT_LEN]; N] {
        // prefix[i] = Z₀·…·Zᵢ₋₁
        let mut prefix = [FieldElement::ONE; N];
        let mut acc = FieldElement::ONE;
        for (pre, p) in prefix.iter_mut().zip(&points) {
            *pre = acc;
            acc = acc.mul(&p.z);
        }
        // inv runs down through (Z₀·…·Zᵢ)⁻¹.
        let mut inv = acc.invert();
        let mut out = [[0u8; POINT_LEN]; N];
        for i in (0..N).rev() {
            out[i] = points[i].compress_with(&inv.mul(&prefix[i]));
            inv = inv.mul(&points[i].z);
        }
        out
    }

    fn compress_with(&self, zinv: &FieldElement) -> [u8; POINT_LEN] {
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let mut out = y.to_bytes();
        if x.is_odd() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompress per RFC 8032 §5.1.3. Fails for encodings that are not on
    /// the curve and for non-canonical ones (y ≥ p, or x = 0 with the sign
    /// bit set), so an accepted encoding is exactly what [`Self::compress`]
    /// returns for the point.
    pub fn decompress(bytes: &[u8; POINT_LEN]) -> Result<Self> {
        let sign = bytes[31] >> 7;
        let y = FieldElement::from_bytes(bytes); // masks the sign bit
        let mut canonical = *bytes;
        canonical[31] &= 0x7f;
        if y.to_bytes() != canonical {
            return Err(CryptoError::InvalidPoint);
        }

        // x² = (y² − 1) / (d·y² + 1)
        let yy = y.square();
        let u = yy.sub(&FieldElement::ONE);
        let v = d().mul(&yy).add(&FieldElement::ONE);

        // Candidate root: x = u·v³·(u·v⁷)^((p−5)/8)
        let v3 = v.square().mul(&v);
        let v7 = v3.square().mul(&v);
        let mut x = u.mul(&v3).mul(&u.mul(&v7).pow22523());

        let vxx = v.mul(&x.square());
        if vxx.ct_eq(&u) {
            // x is already a root.
        } else if vxx.ct_eq(&u.neg()) {
            x = x.mul(&FieldElement::sqrt_m1());
        } else {
            return Err(CryptoError::InvalidPoint);
        }

        if x.is_zero() && sign == 1 {
            return Err(CryptoError::InvalidPoint);
        }
        if x.is_odd() != (sign == 1) {
            x = x.neg();
        }

        Ok(EdwardsPoint {
            x,
            y,
            z: FieldElement::ONE,
            t: x.mul(&y),
        })
    }

    /// Verify the curve equation −x² + y² = 1 + d·x²y² (affine check).
    pub fn is_on_curve(&self) -> bool {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let xx = x.square();
        let yy = y.square();
        let lhs = yy.sub(&xx);
        let rhs = FieldElement::ONE.add(&d().mul(&xx).mul(&yy));
        lhs.ct_eq(&rhs)
    }

    /// Deterministic hash-to-group via try-and-increment, followed by
    /// cofactor clearing. The output lies in the prime-order subgroup and is
    /// never the identity. Variable time in the *public* input only.
    pub fn hash_to_group(domain: &[u8], msg: &[u8]) -> Self {
        for counter in 0u16..=512 {
            let h = sha256_multi(&[b"dcp-h2g:", domain, &counter.to_be_bytes(), msg]);
            let mut candidate = [0u8; POINT_LEN];
            candidate.copy_from_slice(&h);
            // Derive the sign bit from a second hash byte so it is uniform.
            let sign = sha256_multi(&[b"dcp-h2g-sign:", &h])[0] & 1;
            candidate[31] = (candidate[31] & 0x7f) | (sign << 7);
            if let Ok(p) = EdwardsPoint::decompress(&candidate) {
                let q = p.mul_by_cofactor();
                if !q.is_identity() {
                    return q;
                }
            }
        }
        unreachable!("try-and-increment failed 512 times (probability ≈ 2^-512)")
    }

    /// A random point in the prime-order subgroup.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let k = Scalar::random(rng);
        Self::mul_base(&k)
    }
}

impl PartialEq for EdwardsPoint {
    fn eq(&self, other: &Self) -> bool {
        self.eq_point(other)
    }
}
impl Eq for EdwardsPoint {}

/// A point prepared as an addition's second operand:
/// (Y − X, Y + X, 2d·T, 2Z).
#[derive(Clone, Copy, Debug)]
struct CachedPoint {
    y_minus_x: FieldElement,
    y_plus_x: FieldElement,
    t2d: FieldElement,
    z2: FieldElement,
}

/// An addition or doubling before its last four multiplications:
/// X = E·F, Y = G·H, Z = F·G, T = E·H.
struct CompletedPoint {
    e: FieldElement,
    f: FieldElement,
    g: FieldElement,
    h: FieldElement,
}

impl CompletedPoint {
    /// `dbl-2008-hwcd` with a = −1 on (X : Y : Z); T is not needed.
    fn double(x: &FieldElement, y: &FieldElement, z: &FieldElement) -> Self {
        let a = x.square();
        let b = y.square();
        let c = z.square();
        let c = c.add(&c);
        let da = a.neg(); // a·A with a = −1
        let e = x.add(y).square().sub(&a).sub(&b);
        let g = da.add(&b);
        CompletedPoint {
            e,
            f: g.sub(&c),
            g,
            h: da.sub(&b),
        }
    }

    fn to_extended(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.e.mul(&self.f),
            y: self.g.mul(&self.h),
            z: self.f.mul(&self.g),
            t: self.e.mul(&self.h),
        }
    }
}

/// 1·P … 8·P in cached form, indexed by a radix-16 digit's magnitude.
#[derive(Clone, Copy, Debug)]
struct LookupTable([CachedPoint; 8]);

impl LookupTable {
    fn new(p: &EdwardsPoint) -> Self {
        let cached = p.to_cached();
        let mut table = [cached; 8];
        let mut multiple = *p;
        for entry in table.iter_mut().skip(1) {
            multiple = multiple.add_cached(&cached).to_extended();
            *entry = multiple.to_cached();
        }
        LookupTable(table)
    }

    /// `acc + d·P` for a digit `d` in [−8, 8].
    fn add_digit(&self, acc: &EdwardsPoint, d: i8) -> EdwardsPoint {
        if d == 0 {
            return *acc;
        }
        let q = &self.0[d.unsigned_abs() as usize - 1];
        let sum = if d > 0 {
            acc.add_cached(q)
        } else {
            acc.sub_cached(q)
        };
        sum.to_extended()
    }
}

/// The fixed-base table: entry `i` holds (1…8)·16ⁱ·B, so `k·B` is one
/// table addition per radix-16 digit of `k`. Built on first use and shared
/// by every thread.
fn base_tables() -> &'static [LookupTable] {
    static TABLES: OnceLock<Vec<LookupTable>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut p = EdwardsPoint::basepoint();
        (0..64)
            .map(|_| {
                let table = LookupTable::new(&p);
                p = p.mul_by_pow2(4);
                table
            })
            .collect()
    })
}

/// Signed radix-16 digits of a little-endian integer `k < 2²⁵⁵`:
/// `k = Σ eᵢ·16ⁱ` with `eᵢ ∈ [−8, 8)` for `i < 63` and `e₆₃ ∈ [0, 8]`.
fn radix16(k: &[u8; 32]) -> [i8; 64] {
    debug_assert!(k[31] < 0x80, "bit 255 must be clear");
    let mut e = [0i8; 64];
    for (i, byte) in k.iter().enumerate() {
        e[2 * i] = (byte & 15) as i8;
        e[2 * i + 1] = (byte >> 4) as i8;
    }
    // Fold each digit from [0, 16] into [−8, 8) and carry into the next.
    for i in 0..63 {
        let carry = (e[i] + 8) >> 4;
        e[i] -= carry << 4;
        e[i + 1] += carry;
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The direct `add-2008-hwcd-3` addition the cached form replaced.
    fn add_oracle(p: &EdwardsPoint, q: &EdwardsPoint) -> EdwardsPoint {
        let a = p.y.sub(&p.x).mul(&q.y.sub(&q.x));
        let b = p.y.add(&p.x).mul(&q.y.add(&q.x));
        let c = p.t.mul(d2()).mul(&q.t);
        let dd = p.z.mul(&q.z);
        let dd = dd.add(&dd);
        let (e, f, g, h) = (b.sub(&a), dd.sub(&c), dd.add(&c), b.add(&a));
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// The bit-serial double-and-add the windowed kernels replaced, over
    /// the direct addition formulas.
    fn mul_oracle(p: &EdwardsPoint, k: &Scalar) -> EdwardsPoint {
        let mut acc = EdwardsPoint::identity();
        for bit in k.bits_msb_first() {
            acc = add_oracle(&acc, &acc);
            if bit {
                acc = add_oracle(&acc, p);
            }
        }
        acc
    }

    fn scalar_from(bytes: &[u8]) -> Scalar {
        Scalar::from_bytes_mod_order(bytes)
    }

    /// Scalars at the edges of the recoding: 0, 1, small values, ℓ − 1,
    /// and the all-8 and all-15 nibble patterns whose carries ripple
    /// through every digit.
    fn edge_scalars() -> Vec<Scalar> {
        let mut out: Vec<Scalar> = (0..=17).map(Scalar::from_u64).collect();
        out.push(Scalar::zero().sub(&Scalar::one()));
        for fill in [0x88u8, 0xff] {
            let mut b = [fill; 32];
            b[31] = fill & 0x0f; // < 2²⁵² < ℓ
            out.push(Scalar::from_canonical_bytes(&b).unwrap());
        }
        out
    }

    /// A curve point that keeps its torsion component: decoded, not
    /// cofactor-cleared.
    fn torsion_point(seed: u64) -> EdwardsPoint {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        loop {
            let mut enc = [0u8; 32];
            rand::RngCore::fill_bytes(&mut rng, &mut enc);
            if let Ok(p) = EdwardsPoint::decompress(&enc) {
                // ℓ·P ≠ 0: P is outside the prime-order subgroup.
                let l_minus_1 = Scalar::zero().sub(&Scalar::one());
                if !mul_oracle(&p, &l_minus_1).add(&p).is_identity() {
                    return p;
                }
            }
        }
    }

    #[test]
    fn radix16_digits_recompose() {
        for s in edge_scalars() {
            let bytes = s.to_bytes();
            let digits = radix16(&bytes);
            assert!(digits[..63].iter().all(|d| (-8..8).contains(d)));
            assert!((0..=8).contains(&digits[63]));
            // Σ dᵢ·16ⁱ, rebuilt with signed carries byte by byte.
            let mut rebuilt = [0u8; 32];
            let mut carry = 0i32;
            for i in 0..32 {
                let v = digits[2 * i] as i32 + 16 * digits[2 * i + 1] as i32 + carry;
                rebuilt[i] = v.rem_euclid(256) as u8;
                carry = v.div_euclid(256);
            }
            assert_eq!(carry, 0);
            assert_eq!(rebuilt, bytes);
        }
    }

    #[test]
    fn windowed_mul_matches_oracle_at_edge_scalars() {
        let points = [
            EdwardsPoint::basepoint(),
            EdwardsPoint::hash_to_group(b"test", b"edge"),
            torsion_point(1),
            torsion_point(2),
        ];
        for k in edge_scalars() {
            for p in &points {
                assert_eq!(
                    p.mul(&k).compress(),
                    mul_oracle(p, &k).compress(),
                    "k={k:?}"
                );
            }
            assert_eq!(
                EdwardsPoint::mul_base(&k).compress(),
                mul_oracle(&points[0], &k).compress()
            );
        }
    }

    #[test]
    fn compress_batch_matches_compress() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let (p, q) = (EdwardsPoint::random(&mut rng), torsion_point(3));
        let r = p.add(&q);
        assert_eq!(
            EdwardsPoint::compress_batch([&p, &q, &r]),
            [p.compress(), q.compress(), r.compress()]
        );
    }

    #[test]
    fn decompress_rejects_non_canonical_y() {
        // p + 1 aliases y = 1, the identity; accepting it would let one
        // point arrive under two encodings.
        let mut p_plus_1 = [0xffu8; 32];
        p_plus_1[0] = 0xee;
        p_plus_1[31] = 0x7f;
        assert_eq!(
            EdwardsPoint::decompress(&p_plus_1),
            Err(CryptoError::InvalidPoint)
        );
        let mut one = [0u8; 32];
        one[0] = 1;
        assert!(EdwardsPoint::decompress(&one).unwrap().is_identity());

        // p aliases y = 0, an on-curve point of order 4: the canonical
        // encoding decodes, its alias does not.
        let zero = [0u8; 32];
        let q = EdwardsPoint::decompress(&zero).unwrap();
        assert_eq!(q.compress(), zero);
        assert!(q.double().double().is_identity() && !q.double().is_identity());

        // Every y in [p, 2²⁵⁵) is rejected under either sign bit.
        for excess in 0u8..19 {
            for sign in [0u8, 0x80] {
                let mut enc = [0xffu8; 32];
                enc[0] = 0xed + excess;
                enc[31] = 0x7f | sign;
                assert!(EdwardsPoint::decompress(&enc).is_err(), "p+{excess}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn windowed_mul_matches_oracle(
            point in proptest::collection::vec(any::<u8>(), 32),
            k in proptest::collection::vec(any::<u8>(), 64),
        ) {
            let mut enc = [0u8; 32];
            enc.copy_from_slice(&point);
            // Decoded points keep any torsion component.
            let p = EdwardsPoint::decompress(&enc);
            prop_assume!(p.is_ok());
            let p = p.unwrap();
            let k = scalar_from(&k);
            prop_assert_eq!(p.mul(&k).compress(), mul_oracle(&p, &k).compress());
        }

        #[test]
        fn mul_base_matches_basepoint_mul(k in proptest::collection::vec(any::<u8>(), 64)) {
            let k = scalar_from(&k);
            let b = EdwardsPoint::basepoint();
            let fixed = EdwardsPoint::mul_base(&k).compress();
            prop_assert_eq!(fixed, b.mul(&k).compress());
            prop_assert_eq!(fixed, mul_oracle(&b, &k).compress());
        }

        #[test]
        fn double_scalar_mul_is_sum_of_muls(
            a in proptest::collection::vec(any::<u8>(), 64),
            b in proptest::collection::vec(any::<u8>(), 64),
            seed in any::<u64>(),
        ) {
            let (a, b) = (scalar_from(&a), scalar_from(&b));
            let p = EdwardsPoint::hash_to_group(b"test", &seed.to_le_bytes());
            let q = torsion_point(seed);
            let sum = EdwardsPoint::double_scalar_mul(&a, &p, &b, &q);
            prop_assert_eq!(sum.compress(), p.mul(&a).add(&q.mul(&b)).compress());
            prop_assert_eq!(
                sum.compress(),
                add_oracle(&mul_oracle(&p, &a), &mul_oracle(&q, &b)).compress()
            );
        }
    }

    #[test]
    fn basepoint_is_on_curve() {
        let b = EdwardsPoint::basepoint();
        assert!(b.is_on_curve());
        assert!(!b.is_identity());
    }

    #[test]
    fn identity_laws() {
        let id = EdwardsPoint::identity();
        let b = EdwardsPoint::basepoint();
        assert!(id.is_on_curve());
        assert!(b.add(&id).eq_point(&b));
        assert!(id.add(&b).eq_point(&b));
        assert!(id.double().is_identity());
    }

    #[test]
    fn order_annihilates_basepoint() {
        // ℓ·B = identity; (ℓ−1)·B = −B.
        let l_minus_1 = Scalar::zero().sub(&Scalar::one()); // ℓ − 1 mod ℓ ≡ −1
        let p = EdwardsPoint::mul_base(&l_minus_1);
        assert!(p.eq_point(&EdwardsPoint::basepoint().neg()));
        assert!(p.add(&EdwardsPoint::basepoint()).is_identity());
    }

    #[test]
    fn double_matches_add_self() {
        let b = EdwardsPoint::basepoint();
        assert!(b.double().eq_point(&b.add(&b)));
        let p = b.double().add(&b); // 3B
        assert!(p.double().eq_point(&p.add(&p)));
    }

    #[test]
    fn scalar_mul_distributes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let a = Scalar::random(&mut rng);
        let b = Scalar::random(&mut rng);
        // (a+b)·B = a·B + b·B
        let lhs = EdwardsPoint::mul_base(&a.add(&b));
        let rhs = EdwardsPoint::mul_base(&a).add(&EdwardsPoint::mul_base(&b));
        assert!(lhs.eq_point(&rhs));
        // a·(b·B) = (a·b)·B
        let lhs = EdwardsPoint::mul_base(&b).mul(&a);
        let rhs = EdwardsPoint::mul_base(&a.mul(&b));
        assert!(lhs.eq_point(&rhs));
    }

    #[test]
    fn small_scalar_mults() {
        let b = EdwardsPoint::basepoint();
        assert!(b.mul(&Scalar::zero()).is_identity());
        assert!(b.mul(&Scalar::one()).eq_point(&b));
        assert!(b.mul(&Scalar::from_u64(2)).eq_point(&b.double()));
        assert!(b
            .mul(&Scalar::from_u64(5))
            .eq_point(&b.double().double().add(&b)));
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for _ in 0..8 {
            let p = EdwardsPoint::random(&mut rng);
            let enc = p.compress();
            let q = EdwardsPoint::decompress(&enc).unwrap();
            assert!(p.eq_point(&q));
            assert!(q.is_on_curve());
            assert_eq!(q.compress(), enc);
        }
    }

    #[test]
    fn decompress_rejects_off_curve() {
        // An encoding where (y²−1)/(dy²+1) is a non-residue must fail; find
        // one by scanning.
        let mut found_invalid = false;
        for i in 0u8..64 {
            let mut enc = [0u8; 32];
            enc[0] = i;
            enc[1] = 0xd3;
            if EdwardsPoint::decompress(&enc).is_err() {
                found_invalid = true;
                break;
            }
        }
        assert!(found_invalid, "expected at least one invalid encoding");
    }

    #[test]
    fn negation_cancels() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let p = EdwardsPoint::random(&mut rng);
        assert!(p.add(&p.neg()).is_identity());
        assert!(p.sub(&p).is_identity());
        assert!(p.neg().neg().eq_point(&p));
    }

    #[test]
    fn hash_to_group_properties() {
        let p = EdwardsPoint::hash_to_group(b"test", b"input-1");
        let q = EdwardsPoint::hash_to_group(b"test", b"input-1");
        let r = EdwardsPoint::hash_to_group(b"test", b"input-2");
        let s = EdwardsPoint::hash_to_group(b"other", b"input-1");
        assert!(p.eq_point(&q), "deterministic");
        assert!(!p.eq_point(&r), "input separated");
        assert!(!p.eq_point(&s), "domain separated");
        assert!(p.is_on_curve());
        assert!(!p.is_identity());
        // Must lie in the prime-order subgroup: (−1)·P + P = 0 is trivial;
        // instead check ℓ·P = 0 via (ℓ−1)·P = −P.
        let l_minus_1 = Scalar::zero().sub(&Scalar::one());
        assert!(p.mul(&l_minus_1).eq_point(&p.neg()));
    }

    #[test]
    fn mul_by_cofactor_lands_in_subgroup() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let p = EdwardsPoint::random(&mut rng).mul_by_cofactor();
        let l_minus_1 = Scalar::zero().sub(&Scalar::one());
        assert!(p.mul(&l_minus_1).eq_point(&p.neg()));
    }

    #[test]
    fn compressed_basepoint_matches_rfc8032() {
        // The standard Ed25519 basepoint encoding.
        let enc = EdwardsPoint::basepoint().compress();
        assert_eq!(
            crate::util::hex_encode(&enc),
            "5866666666666666666666666666666666666666666666666666666666666666"
        );
    }
}
