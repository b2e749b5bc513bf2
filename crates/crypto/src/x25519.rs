//! X25519 Diffie–Hellman (RFC 7748) over Curve25519. Shared secrets use
//! the Montgomery ladder with uniform conditional swaps; public keys are
//! computed on the birationally equivalent Edwards curve from its
//! fixed-base table (see [`public_key`]).

use crate::edwards::EdwardsPoint;
use crate::field25519::FieldElement;

/// Length of scalars, coordinates, and shared secrets.
pub const KEY_LEN: usize = 32;

/// The base point u-coordinate (9).
pub const BASEPOINT: [u8; KEY_LEN] = {
    let mut b = [0u8; KEY_LEN];
    b[0] = 9;
    b
};

/// Clamp a 32-byte scalar per RFC 7748 §5.
pub fn clamp_scalar(mut k: [u8; KEY_LEN]) -> [u8; KEY_LEN] {
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

/// The X25519 function: scalar multiplication on the Montgomery u-line.
/// `scalar` is clamped internally; `u` has its top bit masked.
pub fn x25519(scalar: &[u8; KEY_LEN], u: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
    let k = clamp_scalar(*scalar);
    let x1 = FieldElement::from_bytes(u);

    let mut x2 = FieldElement::ONE;
    let mut z2 = FieldElement::ZERO;
    let mut x3 = x1;
    let mut z3 = FieldElement::ONE;
    let mut swap = false;

    for t in (0..255).rev() {
        let k_t = (k[t / 8] >> (t % 8)) & 1 == 1;
        let do_swap = swap ^ k_t;
        FieldElement::cswap(do_swap, &mut x2, &mut x3);
        FieldElement::cswap(do_swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2.add(&z2);
        let aa = a.square();
        let b = x2.sub(&z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(&z3);
        let d = x3.sub(&z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        x3 = da.add(&cb).square();
        z3 = x1.mul(&da.sub(&cb).square());
        x2 = aa.mul(&bb);
        z2 = e.mul(&aa.add(&e.mul_small(121665)));
    }
    FieldElement::cswap(swap, &mut x2, &mut x3);
    FieldElement::cswap(swap, &mut z2, &mut z3);

    x2.mul(&z2.invert()).to_bytes()
}

/// Derive the public key for a private scalar (clamped internally):
/// `x25519(private, BASEPOINT)`, computed as `k·B` on the Edwards curve
/// from its fixed-base table and mapped to the u-line. The basepoint u = 9
/// is the image of the Ed25519 basepoint B, so the bytes are the ladder's.
/// Unlike the ladder this is variable-time in the private scalar.
pub fn public_key(private: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
    EdwardsPoint::mul_base_bytes(&clamp_scalar(*private)).to_montgomery_u()
}

/// Generate a keypair from a random number generator.
pub fn keypair<R: rand::Rng + ?Sized>(rng: &mut R) -> ([u8; KEY_LEN], [u8; KEY_LEN]) {
    let mut sk = [0u8; KEY_LEN];
    rng.fill_bytes(&mut sk);
    let sk = clamp_scalar(sk);
    (sk, public_key(&sk))
}

/// Diffie–Hellman shared secret. Returns `None` when the result is the
/// all-zero value (non-contributory / small-order peer point), which callers
/// must treat as an error per RFC 7748 §6.1.
pub fn shared_secret(
    private: &[u8; KEY_LEN],
    peer_public: &[u8; KEY_LEN],
) -> Option<[u8; KEY_LEN]> {
    let s = x25519(private, peer_public);
    if s == [0u8; KEY_LEN] {
        None
    } else {
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{hex_decode, hex_encode};
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The ladder-based public key that the fixed-base path replaced.
    fn public_key_oracle(private: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
        x25519(private, &BASEPOINT)
    }

    fn arr(hex: &str) -> [u8; 32] {
        let v = hex_decode(hex).unwrap();
        let mut a = [0u8; 32];
        a.copy_from_slice(&v);
        a
    }

    #[test]
    fn rfc7748_vector_1() {
        let k = arr("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u = arr("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        assert_eq!(
            hex_encode(&x25519(&k, &u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    #[test]
    fn rfc7748_dh_vectors() {
        let alice_sk = arr("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let alice_pk = arr("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
        let bob_sk = arr("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let bob_pk = arr("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
        let shared = arr("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");

        assert_eq!(public_key(&alice_sk), alice_pk);
        assert_eq!(public_key(&bob_sk), bob_pk);
        assert_eq!(shared_secret(&alice_sk, &bob_pk).unwrap(), shared);
        assert_eq!(shared_secret(&bob_sk, &alice_pk).unwrap(), shared);
    }

    #[test]
    fn rfc7748_iterated_ladder_1000() {
        // RFC 7748 §5.2 iteration test: after 1 iteration and 1000
        // iterations of k, u = x25519(k, u); k = old u.
        let mut k = BASEPOINT;
        let mut u = BASEPOINT;
        let once = x25519(&k, &u);
        assert_eq!(
            hex_encode(&once),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
        for _ in 0..1000 {
            let new_k = x25519(&k, &u);
            u = k;
            k = new_k;
        }
        assert_eq!(
            hex_encode(&k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    #[test]
    fn dh_agreement_random_keys() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..8 {
            let (a_sk, a_pk) = keypair(&mut rng);
            let (b_sk, b_pk) = keypair(&mut rng);
            let s1 = shared_secret(&a_sk, &b_pk).unwrap();
            let s2 = shared_secret(&b_sk, &a_pk).unwrap();
            assert_eq!(s1, s2);
            // Distinct pairs should (overwhelmingly) disagree.
            let (c_sk, _) = keypair(&mut rng);
            assert_ne!(shared_secret(&c_sk, &b_pk).unwrap(), s1);
        }
    }

    #[test]
    fn small_order_point_rejected() {
        // u = 0 is a small-order point; the shared secret must be rejected.
        let sk = clamp_scalar([0x42u8; 32]);
        assert!(shared_secret(&sk, &[0u8; 32]).is_none());
    }

    #[test]
    fn public_key_matches_ladder_at_edges() {
        // All-ones and all-zeros clamp to 2²⁵⁵ − 8 and 2²⁵⁴; a lone low
        // bit is cleared by clamping.
        for k in [[0xffu8; 32], [0u8; 32], [1u8; 32], [0x88u8; 32]] {
            assert_eq!(public_key(&k), public_key_oracle(&k), "k={k:x?}");
        }
    }

    #[test]
    fn non_canonical_u_is_reduced() {
        // RFC 7748 §5: u ≥ p is accepted and taken modulo p, so p + 9
        // behaves as the basepoint 9.
        let mut p_plus_9 = [0xffu8; 32];
        p_plus_9[0] = 0xed + 9;
        p_plus_9[31] = 0x7f;
        let k = clamp_scalar([0x42u8; 32]);
        assert_eq!(x25519(&k, &p_plus_9), x25519(&k, &BASEPOINT));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn public_key_matches_ladder(k in proptest::collection::vec(any::<u8>(), 32)) {
            let mut sk = [0u8; KEY_LEN];
            sk.copy_from_slice(&k);
            prop_assert_eq!(public_key(&sk), public_key_oracle(&sk));
        }
    }

    #[test]
    fn clamping_is_idempotent() {
        let k = [0xffu8; 32];
        let c = clamp_scalar(k);
        assert_eq!(clamp_scalar(c), c);
        assert_eq!(c[0] & 7, 0);
        assert_eq!(c[31] & 0x80, 0);
        assert_eq!(c[31] & 0x40, 0x40);
    }
}
