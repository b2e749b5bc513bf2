//! A verifiable oblivious pseudorandom function (VOPRF) over the Ed25519
//! group, in the style of draft-irtf-cfrg-voprf: DH-OPRF with a
//! Chaum–Pedersen DLEQ proof binding every evaluation to the server's
//! published key.
//!
//! This is the cryptographic mechanism behind Privacy Pass (§3.2.1 of the
//! paper): the issuer evaluates `F(k, x) = H₂(x, k·H₁(x))` on a *blinded*
//! element `r·H₁(x)`, so it never learns `x`; the DLEQ proof prevents the
//! issuer from segmenting users by signing with per-user keys (key
//! consistency is what makes the token *non-identifying*).

use crate::edwards::EdwardsPoint;
use crate::scalar::Scalar;
use crate::sha256::sha256_multi;
use crate::{CryptoError, Result};
use rand::Rng;

/// Domain-separation tag for hash-to-group.
const H2G_DOMAIN: &[u8] = b"dcp-voprf-h2g";
/// Domain-separation tag for the DLEQ challenge.
const DLEQ_DOMAIN: &[u8] = b"dcp-voprf-dleq";
/// Domain-separation tag for output finalization.
const FINALIZE_DOMAIN: &[u8] = b"dcp-voprf-finalize";

/// The server's OPRF key.
#[derive(Clone)]
pub struct ServerKey {
    k: Scalar,
    public: PublicKey,
}

/// The server's public key (commitment to `k`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PublicKey(pub [u8; 32]);

/// A blinded element sent to the server.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlindedElement(pub [u8; 32]);

/// The server's evaluation of a blinded element.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EvaluatedElement(pub [u8; 32]);

/// A Chaum–Pedersen DLEQ proof that `log_B(K) = log_M(Z)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DleqProof {
    /// Challenge scalar.
    pub c: [u8; 32],
    /// Response scalar.
    pub s: [u8; 32],
}

/// Client-side state kept between blind and finalize.
pub struct ClientBlinding {
    input: Vec<u8>,
    r: Scalar,
    blinded: BlindedElement,
}

impl ServerKey {
    /// Generate a fresh OPRF key.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let k = Scalar::random(rng);
        let public = PublicKey(EdwardsPoint::mul_base(&k).compress());
        ServerKey { k, public }
    }

    /// The public commitment `K = k·B`.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Evaluate a blinded element and produce a DLEQ proof. The server
    /// learns nothing about the client's input.
    pub fn evaluate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        blinded: &BlindedElement,
    ) -> Result<(EvaluatedElement, DleqProof)> {
        let m = EdwardsPoint::decompress(&blinded.0)?;
        if m.is_identity() {
            return Err(CryptoError::InvalidPoint);
        }
        let z = m.mul(&self.k);

        // Chaum–Pedersen: prove log_B(K) = log_M(Z) without revealing k.
        let t = Scalar::random(rng);
        let a1 = EdwardsPoint::mul_base(&t);
        let a2 = m.mul(&t);
        let [z, a1, a2] = EdwardsPoint::compress_batch([&z, &a1, &a2]);
        let c = dleq_challenge(&self.public.0, &blinded.0, &z, &a1, &a2);
        let s = t.sub(&c.mul(&self.k));
        Ok((
            EvaluatedElement(z),
            DleqProof {
                c: c.to_bytes(),
                s: s.to_bytes(),
            },
        ))
    }

    /// Direct (unblinded) evaluation `F(k, input)` — used by the server for
    /// redemption-side recomputation.
    pub fn evaluate_direct(&self, input: &[u8]) -> [u8; 32] {
        let p = EdwardsPoint::hash_to_group(H2G_DOMAIN, input);
        let z = p.mul(&self.k);
        finalize_output(input, &z)
    }
}

/// The compressed Ed25519 basepoint (`58 66 … 66`), the first
/// transcript entry.
const BASEPOINT_BYTES: [u8; 32] = {
    let mut b = [0x66; 32];
    b[0] = 0x58;
    b
};

/// The DLEQ challenge over the compressed transcript `B, K, M, Z, A1, A2`.
/// Points that arrived on the wire enter as their received bytes: decoding
/// accepts only canonical encodings, so those bytes are exactly what
/// compressing the decoded point would give.
fn dleq_challenge(
    public: &[u8; 32],
    m: &[u8; 32],
    z: &[u8; 32],
    a1: &[u8; 32],
    a2: &[u8; 32],
) -> Scalar {
    let transcript = [BASEPOINT_BYTES, *public, *m, *z, *a1, *a2].concat();
    Scalar::hash_from_bytes(DLEQ_DOMAIN, &transcript)
}

fn finalize_output(input: &[u8], unblinded: &EdwardsPoint) -> [u8; 32] {
    sha256_multi(&[
        FINALIZE_DOMAIN,
        &(input.len() as u64).to_be_bytes(),
        input,
        &unblinded.compress(),
    ])
}

/// Client: blind an input for oblivious evaluation.
pub fn blind<R: Rng + ?Sized>(rng: &mut R, input: &[u8]) -> ClientBlinding {
    let p = EdwardsPoint::hash_to_group(H2G_DOMAIN, input);
    let r = Scalar::random(rng);
    let blinded = BlindedElement(p.mul(&r).compress());
    ClientBlinding {
        input: input.to_vec(),
        r,
        blinded,
    }
}

impl ClientBlinding {
    /// The element to send to the server.
    pub fn blinded_element(&self) -> BlindedElement {
        self.blinded
    }

    /// The original (pre-blinding) input.
    pub fn input(&self) -> &[u8] {
        &self.input
    }

    /// Verify the DLEQ proof against the server's published key, unblind,
    /// and produce the PRF output `F(k, input)`.
    pub fn finalize(
        &self,
        server_pk: &PublicKey,
        evaluated: &EvaluatedElement,
        proof: &DleqProof,
    ) -> Result<[u8; 32]> {
        let k_pub = EdwardsPoint::decompress(&server_pk.0)?;
        let m = EdwardsPoint::decompress(&self.blinded.0)?;
        let z = EdwardsPoint::decompress(&evaluated.0)?;

        // Verify: A1 = s·B + c·K, A2 = s·M + c·Z, then c == H(transcript).
        let c = Scalar::from_canonical_bytes(&proof.c)?;
        let s = Scalar::from_canonical_bytes(&proof.s)?;
        let a1 = EdwardsPoint::mul_base(&s).add(&k_pub.mul(&c));
        let a2 = EdwardsPoint::double_scalar_mul(&s, &m, &c, &z);
        let [a1, a2] = EdwardsPoint::compress_batch([&a1, &a2]);
        let expect = dleq_challenge(&server_pk.0, &self.blinded.0, &evaluated.0, &a1, &a2);
        if expect != c {
            return Err(CryptoError::BadProof);
        }

        let r_inv = self.r.invert().ok_or(CryptoError::InvalidScalar)?;
        let unblinded = z.mul(&r_inv);
        Ok(finalize_output(&self.input, &unblinded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(4096)
    }

    #[test]
    fn oblivious_evaluation_matches_direct() {
        let mut rng = rng();
        let server = ServerKey::generate(&mut rng);
        let pk = server.public_key();

        let blinding = blind(&mut rng, b"token-input");
        let (eval, proof) = server
            .evaluate(&mut rng, &blinding.blinded_element())
            .unwrap();
        let output = blinding.finalize(&pk, &eval, &proof).unwrap();

        // The client's unblinded output equals the server's direct PRF.
        assert_eq!(output, server.evaluate_direct(b"token-input"));
    }

    #[test]
    fn different_inputs_different_outputs() {
        let mut rng = rng();
        let server = ServerKey::generate(&mut rng);
        assert_ne!(server.evaluate_direct(b"a"), server.evaluate_direct(b"b"));
    }

    #[test]
    fn blinding_hides_input() {
        // Two blindings of the same input are unlinkable group elements.
        let mut rng = rng();
        let b1 = blind(&mut rng, b"same");
        let b2 = blind(&mut rng, b"same");
        assert_ne!(b1.blinded_element(), b2.blinded_element());
    }

    #[test]
    fn dleq_rejects_wrong_key() {
        // A malicious issuer evaluating with a *different* key (user
        // segmentation attack) must be caught by the DLEQ check.
        let mut rng = rng();
        let honest = ServerKey::generate(&mut rng);
        let evil = ServerKey::generate(&mut rng);

        let blinding = blind(&mut rng, b"victim");
        let (eval, proof) = evil
            .evaluate(&mut rng, &blinding.blinded_element())
            .unwrap();
        // Client checks against the honest published key.
        assert_eq!(
            blinding.finalize(&honest.public_key(), &eval, &proof),
            Err(CryptoError::BadProof)
        );
    }

    #[test]
    fn dleq_rejects_tampered_evaluation() {
        let mut rng = rng();
        let server = ServerKey::generate(&mut rng);
        let blinding = blind(&mut rng, b"x");
        let (_eval, proof) = server
            .evaluate(&mut rng, &blinding.blinded_element())
            .unwrap();
        // Replace the evaluation with a random point but keep the proof.
        let fake = EvaluatedElement(EdwardsPoint::random(&mut rng).compress());
        assert!(blinding
            .finalize(&server.public_key(), &fake, &proof)
            .is_err());
    }

    #[test]
    fn identity_blinded_element_rejected() {
        let mut rng = rng();
        let server = ServerKey::generate(&mut rng);
        let id = BlindedElement(EdwardsPoint::identity().compress());
        assert!(server.evaluate(&mut rng, &id).is_err());
    }

    #[test]
    fn transcript_basepoint_constant() {
        assert_eq!(BASEPOINT_BYTES, EdwardsPoint::basepoint().compress());
    }

    #[test]
    fn outputs_bound_to_key() {
        let mut rng = rng();
        let s1 = ServerKey::generate(&mut rng);
        let s2 = ServerKey::generate(&mut rng);
        assert_ne!(s1.evaluate_direct(b"x"), s2.evaluate_direct(b"x"));
    }
}
