//! The pluggable bignum backend behind every RSA/VOPRF hot path.
//!
//! All modular arithmetic this crate performs on secret-bearing operands
//! (RSA raw operations, blinding inversions, scalar inversion mod ℓ,
//! Miller–Rabin witnesses) goes through the [`Backend`] trait instead of
//! calling [`BigUint`] methods directly. Two
//! implementations exist:
//!
//! * [`ReferenceBackend`] — thin delegation to [`crate::bigint`]'s
//!   schoolbook + Knuth-D arithmetic. Slow, simple, and the semantic
//!   ground truth.
//! * [`FastBackend`](crate::fastmont::FastBackend) — `u64`-limb CIOS
//!   Montgomery multiplication with adaptive fixed-window exponentiation
//!   and a per-modulus context cache (see [`crate::fastmont`]).
//!
//! The two are **value-equivalent by construction**: every operation is a
//! pure function of its integer inputs, so swapping backends can change
//! only wall-clock time, never bytes. CI enforces this by byte-diffing
//! the DST probe artifacts across the swap, and
//! `tests/crypto_backend.rs` proptests the equivalence directly.
//!
//! The trait is *sealed* — downstream crates pick a backend, they do not
//! implement one — and *fail-closed*: a degenerate modulus (zero) is an
//! error, never a panic, and byte-level entry points re-encode through
//! validated fixed-width big-endian forms.
//!
//! Process-global selection defaults to the fast backend; DST probes and
//! the crypto bench flip it with [`set_backend`] to prove the swap is
//! behaviorally invisible.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::bigint::BigUint;
use crate::{CryptoError, Result};

mod sealed {
    /// Only this crate's two backends may implement [`super::Backend`].
    pub trait Sealed {}
    impl Sealed for super::ReferenceBackend {}
    impl Sealed for crate::fastmont::FastBackend {}
}

/// Bignum operations every RSA/VOPRF call site routes through.
///
/// All methods are variable-time (see the crate-level note) and
/// fail-closed: a zero modulus yields [`CryptoError::Malformed`], a
/// non-invertible element yields `None`/[`CryptoError::InvalidScalar`].
pub trait Backend: sealed::Sealed + Send + Sync {
    /// Stable backend name (appears in bench artifacts and CLI flags).
    fn name(&self) -> &'static str;

    /// `base^exp mod modulus`. Errors on a zero modulus.
    fn modpow(&self, base: &BigUint, exp: &BigUint, modulus: &BigUint) -> Result<BigUint>;

    /// Modular inverse of `a` mod `modulus`; `None` when
    /// `gcd(a, modulus) != 1` (or the modulus is degenerate).
    fn modinv(&self, a: &BigUint, modulus: &BigUint) -> Option<BigUint>;

    /// `(a * b) mod modulus`. Errors on a zero modulus.
    fn mulmod(&self, a: &BigUint, b: &BigUint, modulus: &BigUint) -> Result<BigUint>;

    /// `a mod modulus`. Errors on a zero modulus.
    fn reduce(&self, a: &BigUint, modulus: &BigUint) -> Result<BigUint>;

    /// Byte-level [`Backend::modpow`] over big-endian encodings; the
    /// result is left-padded to `modulus.len()` bytes. This is the
    /// surface external callers (benches, probes) use — it keeps
    /// [`BigUint`] out of their signatures entirely.
    fn modpow_bytes(&self, base: &[u8], exp: &[u8], modulus: &[u8]) -> Result<Vec<u8>> {
        let m = BigUint::from_bytes_be(modulus);
        let out = self.modpow(
            &BigUint::from_bytes_be(base),
            &BigUint::from_bytes_be(exp),
            &m,
        )?;
        out.checked_to_bytes_be_padded(modulus.len())
            .ok_or(CryptoError::Malformed)
    }

    /// Byte-level [`Backend::mulmod`]; result left-padded to
    /// `modulus.len()` bytes.
    fn mulmod_bytes(&self, a: &[u8], b: &[u8], modulus: &[u8]) -> Result<Vec<u8>> {
        let m = BigUint::from_bytes_be(modulus);
        let out = self.mulmod(&BigUint::from_bytes_be(a), &BigUint::from_bytes_be(b), &m)?;
        out.checked_to_bytes_be_padded(modulus.len())
            .ok_or(CryptoError::Malformed)
    }

    /// Byte-level [`Backend::modinv`]; result left-padded to
    /// `modulus.len()` bytes, [`CryptoError::InvalidScalar`] when no
    /// inverse exists.
    fn modinv_bytes(&self, a: &[u8], modulus: &[u8]) -> Result<Vec<u8>> {
        let m = BigUint::from_bytes_be(modulus);
        let inv = self
            .modinv(&BigUint::from_bytes_be(a), &m)
            .ok_or(CryptoError::InvalidScalar)?;
        inv.checked_to_bytes_be_padded(modulus.len())
            .ok_or(CryptoError::Malformed)
    }

    /// Byte-level [`Backend::reduce`]; result left-padded to
    /// `modulus.len()` bytes.
    fn reduce_bytes(&self, a: &[u8], modulus: &[u8]) -> Result<Vec<u8>> {
        let m = BigUint::from_bytes_be(modulus);
        let out = self.reduce(&BigUint::from_bytes_be(a), &m)?;
        out.checked_to_bytes_be_padded(modulus.len())
            .ok_or(CryptoError::Malformed)
    }
}

/// The reference backend: direct delegation to [`crate::bigint`].
///
/// Kept permanently as the semantic baseline the fast backend is
/// equivalence-tested and byte-diffed against.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReferenceBackend;

impl Backend for ReferenceBackend {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn modpow(&self, base: &BigUint, exp: &BigUint, modulus: &BigUint) -> Result<BigUint> {
        if modulus.is_zero() {
            return Err(CryptoError::Malformed);
        }
        Ok(base.modpow(exp, modulus))
    }

    fn modinv(&self, a: &BigUint, modulus: &BigUint) -> Option<BigUint> {
        a.modinv(modulus)
    }

    fn mulmod(&self, a: &BigUint, b: &BigUint, modulus: &BigUint) -> Result<BigUint> {
        if modulus.is_zero() {
            return Err(CryptoError::Malformed);
        }
        Ok(a.mulmod(b, modulus))
    }

    fn reduce(&self, a: &BigUint, modulus: &BigUint) -> Result<BigUint> {
        if modulus.is_zero() {
            return Err(CryptoError::Malformed);
        }
        Ok(a.rem(modulus))
    }
}

/// Which backend the process-global dispatch uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// [`ReferenceBackend`] — the semantic baseline.
    Reference,
    /// [`FastBackend`](crate::fastmont::FastBackend) — the default.
    Fast,
}

impl BackendKind {
    /// Parse a CLI/ENV spelling (`"reference"` / `"fast"`).
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "reference" => Some(BackendKind::Reference),
            "fast" => Some(BackendKind::Fast),
            _ => None,
        }
    }
}

/// Fast by default; DST probes flip this to prove the swap is invisible.
static ACTIVE: AtomicU8 = AtomicU8::new(1);

/// Select the process-global backend used by [`active`].
pub fn set_backend(kind: BackendKind) {
    let v = match kind {
        BackendKind::Reference => 0,
        BackendKind::Fast => 1,
    };
    ACTIVE.store(v, Ordering::SeqCst);
}

/// The currently selected [`BackendKind`].
pub fn active_kind() -> BackendKind {
    match ACTIVE.load(Ordering::SeqCst) {
        0 => BackendKind::Reference,
        _ => BackendKind::Fast,
    }
}

/// The reference backend instance.
pub fn reference() -> &'static dyn Backend {
    static R: ReferenceBackend = ReferenceBackend;
    &R
}

/// The fast backend instance (shared per-modulus context cache).
pub fn fast() -> &'static dyn Backend {
    crate::fastmont::shared()
}

/// The backend instance for an explicit kind.
pub fn by_kind(kind: BackendKind) -> &'static dyn Backend {
    match kind {
        BackendKind::Reference => reference(),
        BackendKind::Fast => fast(),
    }
}

/// The process-global active backend — what every internal call site
/// dispatches through.
pub fn active() -> &'static dyn Backend {
    by_kind(active_kind())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from_bytes_be(&v.to_be_bytes())
    }

    #[test]
    fn reference_matches_bigint() {
        let r = reference();
        assert_eq!(r.modpow(&big(3), &big(20), &big(1000)).unwrap(), big(401));
        assert_eq!(r.mulmod(&big(7), &big(8), &big(10)).unwrap(), big(6));
        assert_eq!(r.reduce(&big(27), &big(10)).unwrap(), big(7));
        assert_eq!(r.modinv(&big(3), &big(11)).unwrap(), big(4));
        assert!(r.modinv(&big(6), &big(9)).is_none());
    }

    #[test]
    fn zero_modulus_fails_closed_everywhere() {
        for b in [reference(), fast()] {
            assert!(b.modpow(&big(2), &big(3), &BigUint::zero()).is_err());
            assert!(b.mulmod(&big(2), &big(3), &BigUint::zero()).is_err());
            assert!(b.reduce(&big(2), &BigUint::zero()).is_err());
            assert!(b.modinv(&big(2), &BigUint::zero()).is_none());
            assert!(b.modpow_bytes(&[2], &[3], &[]).is_err());
        }
    }

    #[test]
    fn byte_surface_pads_to_modulus_width() {
        let m = big(1_000_003).to_bytes_be();
        for b in [reference(), fast()] {
            let out = b.modpow_bytes(&[3], &[2], &m).unwrap();
            assert_eq!(out.len(), m.len(), "padded to modulus width");
            assert_eq!(BigUint::from_bytes_be(&out), big(9));
            assert_eq!(b.mulmod_bytes(&[0xff], &[2], &m).unwrap().len(), m.len());
            let inv = b.modinv_bytes(&[3], &m).unwrap();
            assert_eq!(
                b.mulmod_bytes(&inv, &[3], &m).unwrap(),
                b.reduce_bytes(&[1], &m).unwrap()
            );
        }
    }

    #[test]
    fn global_selection_round_trips() {
        let before = active_kind();
        set_backend(BackendKind::Reference);
        assert_eq!(active_kind(), BackendKind::Reference);
        assert_eq!(active().name(), "reference");
        set_backend(BackendKind::Fast);
        assert_eq!(active_kind(), BackendKind::Fast);
        assert_eq!(active().name(), "fast");
        set_backend(before);
        assert_eq!(BackendKind::parse("fast"), Some(BackendKind::Fast));
        assert_eq!(
            BackendKind::parse("reference"),
            Some(BackendKind::Reference)
        );
        assert_eq!(BackendKind::parse("turbo"), None);
    }
}
