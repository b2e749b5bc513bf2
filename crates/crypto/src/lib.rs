//! # dcp-crypto — from-scratch cryptographic substrate
//!
//! Every primitive used by the decoupling workspace is implemented here from
//! first principles, with no external cryptography dependencies:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4) plus [`hmac`] (RFC 2104) and
//!   [`hkdf`] (RFC 5869).
//! * [`chacha20`], [`poly1305`], [`aead`] — the RFC 8439 AEAD construction.
//! * [`field25519`], [`x25519`] — GF(2^255 − 19) arithmetic and the RFC 7748
//!   Montgomery-ladder Diffie–Hellman function.
//! * [`edwards`] — the Ed25519 twisted Edwards group (point addition,
//!   doubling, compression, hash-to-group, windowed and fixed-base scalar
//!   multiplication) used as the prime-order group for the VOPRF behind
//!   Privacy Pass, and for X25519 public keys.
//! * [`scalar`] — arithmetic modulo the Ed25519 group order ℓ.
//! * [`bigint`] — arbitrary-precision unsigned integers (schoolbook +
//!   Knuth-D division + modular exponentiation), the substrate for RSA.
//! * [`backend`] — the sealed pluggable bignum [`Backend`](backend::Backend)
//!   trait every RSA/VOPRF hot path dispatches through, with [`bigint`] as
//!   the reference implementation and process-global selection.
//! * [`fastmont`] — the fast backend: `u64`-limb CIOS Montgomery
//!   multiplication, adaptive fixed-window exponentiation, per-modulus
//!   context cache.
//! * [`montgomery`] — the older `u32`-limb Montgomery modpow, kept as the
//!   measured ablation against the division-based baseline (see the
//!   `modpow` bench group).
//! * [`rsa`] — RSA keygen (Miller–Rabin), PKCS#1 v1.5 signatures, and the
//!   *blind* RSA signing flow (Chaum 1983) used by the digital-cash and
//!   token systems.
//! * [`hpke`] — RFC 9180 hybrid public-key encryption,
//!   DHKEM(X25519, HKDF-SHA256) + HKDF-SHA256 + ChaCha20-Poly1305, base and
//!   PSK modes, with the exporter interface.
//! * [`oprf`] — a verifiable oblivious PRF (DH-OPRF with Chaum–Pedersen DLEQ
//!   proofs) over the Edwards group.
//!
//! ## A note on constant-time behaviour
//!
//! This crate exists to *reproduce the architecture* of the systems studied
//! in "The Decoupling Principle" (HotNets '22) inside a simulator, not to
//! ship production key material. Field arithmetic avoids secret-dependent
//! branching where that is cheap (the X25519 ladder used for shared
//! secrets is uniform; AEAD tag comparison is constant-time via
//! [`util::ct_eq`]), but scalar multiplication in [`edwards`] and all
//! [`bigint`] arithmetic are variable-time. The Edwards kernels index
//! their precomputed tables by secret scalar digits and skip zero digits,
//! and [`x25519::public_key`] runs on the Edwards fixed-base table, so key
//! generation is variable-time in the private scalar too. Each module
//! documents its own stance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod backend;
pub mod bigint;
pub mod chacha20;
pub mod edwards;
pub mod fastmont;
pub mod field25519;
pub mod hkdf;
pub mod hmac;
pub mod hpke;
pub mod montgomery;
pub mod oprf;
pub mod poly1305;
pub mod rsa;
pub mod scalar;
pub mod sha256;
pub mod util;
pub mod x25519;

/// Errors produced by cryptographic operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// An AEAD open failed authentication (tag mismatch or truncation).
    AeadOpenFailed,
    /// A compressed Edwards point failed to decompress onto the curve.
    InvalidPoint,
    /// A scalar was zero / out of range where a unit was required.
    InvalidScalar,
    /// A signature failed verification.
    BadSignature,
    /// An RSA message was too large for the modulus.
    MessageTooLarge,
    /// A DLEQ proof failed verification.
    BadProof,
    /// HPKE encapsulated key or ciphertext was malformed.
    Malformed,
    /// Key generation failed to find suitable parameters.
    KeyGen,
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            CryptoError::AeadOpenFailed => "AEAD authentication failed",
            CryptoError::InvalidPoint => "invalid group element",
            CryptoError::InvalidScalar => "invalid scalar",
            CryptoError::BadSignature => "signature verification failed",
            CryptoError::MessageTooLarge => "message too large for modulus",
            CryptoError::BadProof => "zero-knowledge proof verification failed",
            CryptoError::Malformed => "malformed cryptographic input",
            CryptoError::KeyGen => "key generation failed",
        };
        f.write_str(s)
    }
}

impl std::error::Error for CryptoError {}

/// Convenient `Result` alias for this crate.
pub type Result<T> = core::result::Result<T, CryptoError>;
