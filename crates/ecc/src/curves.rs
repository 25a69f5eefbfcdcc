//! Named curve parameter sets for the serving layer.
//!
//! Parameters are stored plain (non-Montgomery); the serving layer
//! enters the domain per engine checkout. Only NIST P-256 is baked in
//! — the serving API accepts any [`CurveSpec`], so test curves (and
//! research primes like 2²⁵⁵ − 19 under a short-Weierstrass model) go
//! through the same code path.

use mmm_bigint::Ubig;
use mmm_core::error::MmmError;

/// A short-Weierstrass curve group specification: field prime,
/// coefficients, base point and its (prime) order — everything the
/// ECDSA/ECDH front-end needs, in plain coordinates.
#[derive(Debug, Clone)]
pub struct CurveSpec {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Field prime `p`.
    pub p: Ubig,
    /// Coefficient `a`.
    pub a: Ubig,
    /// Coefficient `b`.
    pub b: Ubig,
    /// Base-point x-coordinate.
    pub gx: Ubig,
    /// Base-point y-coordinate.
    pub gy: Ubig,
    /// Order of the base point (prime for the named curves).
    pub order: Ubig,
}

impl CurveSpec {
    /// Plain-arithmetic curve-membership check
    /// (`y² ≡ x³ + ax + b mod p`) — used by session admission to validate
    /// requests before any engine is checked out.
    pub fn on_curve(&self, x: &Ubig, y: &Ubig) -> bool {
        if x >= &self.p || y >= &self.p {
            return false;
        }
        let y2 = y.modmul(y, &self.p);
        let rhs = x
            .modpow(&Ubig::from(3u64), &self.p)
            .modadd(&self.a.modmul(x, &self.p), &self.p)
            .modadd(&self.b.rem(&self.p), &self.p);
        y2 == rhs
    }
}

/// Rejects a singular curve `y² = x³ + ax + b` over GF(p): one whose
/// discriminant `4a³ + 27b²` vanishes mod `p` is
/// [`MmmError::SingularCurve`]. Coefficients are plain.
pub(crate) fn check_nonsingular(p: &Ubig, a: &Ubig, b: &Ubig) -> Result<(), MmmError> {
    let a3 = a.modpow(&Ubig::from(3u64), p);
    let b2 = b.modmul(b, p);
    let disc = Ubig::from(4u64)
        .modmul(&a3, p)
        .modadd(&Ubig::from(27u64).modmul(&b2, p), p);
    if disc.is_zero() {
        Err(MmmError::SingularCurve)
    } else {
        Ok(())
    }
}

/// NIST P-256 (secp256r1, FIPS 186-4 D.1.2.3).
pub fn p256() -> CurveSpec {
    let hex = |s: &str| Ubig::from_hex(s).expect("valid built-in constant");
    CurveSpec {
        name: "P-256",
        p: hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"),
        a: hex("ffffffff00000001000000000000000000000000fffffffffffffffffffffffc"),
        b: hex("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b"),
        gx: hex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"),
        gy: hex("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"),
        order: hex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p256_generator_is_on_curve() {
        let spec = p256();
        assert!(spec.on_curve(&spec.gx, &spec.gy));
        let mut off = spec.gy.clone();
        off = off.modadd(&Ubig::one(), &spec.p);
        assert!(!spec.on_curve(&spec.gx, &off));
    }

    #[test]
    fn p256_constants_are_prime_sized() {
        let spec = p256();
        assert_eq!(spec.p.bit_len(), 256);
        assert_eq!(spec.order.bit_len(), 256);
        assert!(spec.order < spec.p);
        // a = p − 3
        assert_eq!(spec.a.modadd(&Ubig::from(3u64), &spec.p), Ubig::zero());
    }
}
