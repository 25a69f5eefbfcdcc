//! Shared fixtures for the serving-plane suites: each of the five
//! served op kinds — RSA sign, decrypt and CRT decrypt, ECDSA verify
//! and ECDH — as keys to register plus seeded requests paired with
//! oracle answers computed without the batch engines (big-integer
//! `modpow` for RSA, plain affine arithmetic and the solo [`Curve`]
//! for ECC), plus the affine reference `tests/ecc_serving.rs` signs
//! with and a polling helper.

// Each suite uses a different subset of these helpers.
#![allow(dead_code, unused_macros)]

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::montgomery::MontgomeryParams;
use montgomery_systolic::core::serve::{KeyId, Server, ServerBuilder, Session};
use montgomery_systolic::core::traits::SoftwareEngine;
use montgomery_systolic::core::{EngineConfig, MmmError, OperandBound};
use montgomery_systolic::ecc::curves::CurveSpec;
use montgomery_systolic::ecc::serve::{
    CurveOp, CurveRequest, CurveResponse, CurveSession, EcdhRequest, EcdsaRequest,
};
use montgomery_systolic::ecc::{Curve, FieldCtx};
use montgomery_systolic::rsa::{BatchOp, KeyedSession, RsaKeyPair};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Polls `done` for up to ten seconds.
pub fn await_until(done: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !done() {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "condition never held"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A request with its oracle answer.
pub type Pair<S> = (<S as Session>::Request, <S as Session>::Response);

/// One served op kind: the session type it runs on, two distinct keys
/// to register, and an oracle-checked traffic generator per key.
pub trait OpCase: Sync {
    type S: Session<Response: PartialEq>;

    fn name(&self) -> &'static str;

    fn op(&self) -> <Self::S as Session>::Op;

    /// Registers key `which` (0 or 1) on `builder`.
    fn register(&self, builder: &mut ServerBuilder<Self::S>, which: usize) -> KeyId;

    /// `count` seeded requests for key `which`, each with its oracle
    /// answer.
    fn traffic(&self, which: usize, seed: u64, count: usize) -> Vec<Pair<Self::S>>;

    /// Requests for key 0 that admission must bounce, with the typed
    /// error each must bounce with.
    fn malformed(&self) -> Vec<(<Self::S as Session>::Request, MmmError)>;

    /// A started server on `config` with key 0 registered.
    fn server(&self, config: EngineConfig) -> (Server<Self::S>, KeyId) {
        let mut builder = Server::builder(config);
        let id = self.register(&mut builder, 0);
        (builder.build().unwrap(), id)
    }
}

/// Runs `$check(&case)` once per served op kind.
macro_rules! for_each_op {
    ($check:ident) => {{
        use montgomery_systolic::rsa::BatchOp;
        $check(&common::RsaCase::new(BatchOp::Sign));
        $check(&common::RsaCase::new(BatchOp::Decrypt));
        $check(&common::RsaCase::new(BatchOp::DecryptCrt));
        $check(&common::EcdsaCase::new());
        $check(&common::EcdhCase::new());
    }};
}

// ---------------------------------------------------------------------
// RSA: 64-bit keys, answers from `Ubig::modpow`.
// ---------------------------------------------------------------------

pub struct RsaCase {
    op: BatchOp,
    keys: [RsaKeyPair; 2],
}

impl RsaCase {
    pub fn new(op: BatchOp) -> Self {
        let key = |seed| RsaKeyPair::generate(&mut StdRng::seed_from_u64(seed), 64, 12);
        RsaCase {
            op,
            keys: [key(800), key(801)],
        }
    }
}

impl OpCase for RsaCase {
    type S = KeyedSession;

    fn name(&self) -> &'static str {
        match self.op {
            BatchOp::Sign => "sign",
            BatchOp::Decrypt => "decrypt",
            BatchOp::DecryptCrt => "decrypt-crt",
        }
    }

    fn op(&self) -> BatchOp {
        self.op
    }

    fn register(&self, builder: &mut ServerBuilder<KeyedSession>, which: usize) -> KeyId {
        builder.add_key(self.keys[which].clone()).unwrap()
    }

    fn traffic(&self, which: usize, seed: u64, count: usize) -> Vec<(Ubig, Ubig)> {
        let key = &self.keys[which];
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let m = Ubig::random_below(&mut rng, &key.n);
                match self.op {
                    BatchOp::Sign => (m.clone(), m.modpow(&key.d, &key.n)),
                    BatchOp::Decrypt | BatchOp::DecryptCrt => (m.modpow(&key.e, &key.n), m),
                }
            })
            .collect()
    }

    fn malformed(&self) -> Vec<(Ubig, MmmError)> {
        let n = &self.keys[0].n;
        let out_of_range = MmmError::OperandOutOfRange {
            lane: 0,
            bound: OperandBound::N,
        };
        vec![
            (n.clone(), out_of_range.clone()),
            (n + &Ubig::one(), out_of_range),
        ]
    }
}

// ---------------------------------------------------------------------
// ECC: two 16-bit prime-order curves (cheap on every backend), answers
// from plain affine arithmetic and the solo `Curve`.
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Plain affine reference arithmetic (independent of every engine and
// of the Jacobian/Montgomery machinery under test).
// ---------------------------------------------------------------------

pub type Aff = Option<(Ubig, Ubig)>;

fn inv_mod(x: &Ubig, p: &Ubig) -> Ubig {
    x.rem(p).modinv(p).expect("inverse exists for test inputs")
}

pub fn aff_add(p: &Ubig, a: &Ubig, p1: &Aff, p2: &Aff) -> Aff {
    match (p1, p2) {
        (None, q) => q.clone(),
        (q, None) => q.clone(),
        (Some((x1, y1)), Some((x2, y2))) => {
            if x1 == x2 && y1.modadd(y2, p).is_zero() {
                return None;
            }
            let l = if x1 == x2 && y1 == y2 {
                let num = Ubig::from(3u64).modmul(&x1.modmul(x1, p), p).modadd(a, p);
                num.modmul(&inv_mod(&y1.modadd(y1, p), p), p)
            } else {
                y2.modsub(y1, p).modmul(&inv_mod(&x2.modsub(x1, p), p), p)
            };
            let x3 = l.modmul(&l, p).modsub(x1, p).modsub(x2, p);
            let y3 = l.modmul(&x1.modsub(&x3, p), p).modsub(y1, p);
            Some((x3, y3))
        }
    }
}

pub fn aff_mul(p: &Ubig, a: &Ubig, k: &Ubig, pt: &Aff) -> Aff {
    let mut acc: Aff = None;
    for i in (0..k.bit_len()).rev() {
        acc = aff_add(p, a, &acc, &acc.clone());
        if k.bit(i) {
            acc = aff_add(p, a, &acc, pt);
        }
    }
    acc
}

/// Textbook ECDSA signing over the affine reference: `r = x([k]G) mod
/// n`, `s = k⁻¹(z + r·d) mod n`. The seeded `k` values in the tests
/// never produce `r = 0` or `s = 0`.
pub fn ecdsa_sign(spec: &CurveSpec, z: &Ubig, d: &Ubig, k: &Ubig) -> (Ubig, Ubig) {
    let g = Some((spec.gx.clone(), spec.gy.clone()));
    let (rx, _) = aff_mul(&spec.p, &spec.a, k, &g).expect("k < order");
    let n = &spec.order;
    let r = rx.rem(n);
    assert!(!r.is_zero(), "test nonce produced r = 0");
    let s = inv_mod(k, n).modmul(&z.rem(n).modadd(&r.modmul(&d.rem(n), n), n), n);
    assert!(!s.is_zero(), "test nonce produced s = 0");
    (r, s)
}

/// `y² = x³ − 3x + b` over GF(p) with prime group order `order`,
/// generated by `(gx, gy)`. Both were found by exhaustive point
/// counting; `[order]G = ∞` is re-checked on construction.
fn small_curve(which: usize) -> CurveSpec {
    let (p, b, order, gx, gy) = [
        (65521u64, 3u64, 65563u64, 1u64, 1u64),
        (65519, 76, 65447, 2, 25056),
    ][which];
    let spec = CurveSpec {
        name: "small16",
        p: Ubig::from(p),
        a: Ubig::from(p - 3),
        b: Ubig::from(b),
        gx: Ubig::from(gx),
        gy: Ubig::from(gy),
        order: Ubig::from(order),
    };
    assert!(spec.on_curve(&spec.gx, &spec.gy));
    assert_eq!(base_mul(&spec, &spec.order), None);
    spec
}

/// `[k]G` over the affine reference.
fn base_mul(spec: &CurveSpec, k: &Ubig) -> Aff {
    let g = Some((spec.gx.clone(), spec.gy.clone()));
    aff_mul(&spec.p, &spec.a, k, &g)
}

/// FIPS 186-4 §6.4 verification over the affine reference.
fn affine_verify(spec: &CurveSpec, req: &EcdsaRequest) -> bool {
    let n = &spec.order;
    if req.r.is_zero() || &req.r >= n || req.s.is_zero() || &req.s >= n {
        return false;
    }
    let w = req.s.modinv(n).expect("prime order");
    let u1 = req.z.rem(n).modmul(&w, n);
    let u2 = req.r.modmul(&w, n);
    let q = Some((req.qx.clone(), req.qy.clone()));
    let sum = aff_add(
        &spec.p,
        &spec.a,
        &base_mul(spec, &u1),
        &aff_mul(&spec.p, &spec.a, &u2, &q),
    );
    sum.is_some_and(|(x, _)| x.rem(n) == req.r)
}

fn nonzero_below(rng: &mut StdRng, n: &Ubig) -> Ubig {
    loop {
        let k = Ubig::random_below(rng, n);
        if !k.is_zero() {
            return k;
        }
    }
}

/// `(qx, qy)` moved off the curve.
fn off_curve(spec: &CurveSpec, qx: &Ubig, qy: &Ubig) -> (Ubig, Ubig) {
    let y = qy.modadd(&Ubig::one(), &spec.p);
    assert!(!spec.on_curve(qx, &y));
    (qx.clone(), y)
}

pub struct EcdsaCase {
    specs: [CurveSpec; 2],
}

impl EcdsaCase {
    pub fn new() -> Self {
        EcdsaCase {
            specs: [small_curve(0), small_curve(1)],
        }
    }
}

impl OpCase for EcdsaCase {
    type S = CurveSession;

    fn name(&self) -> &'static str {
        "ecdsa-verify"
    }

    fn op(&self) -> CurveOp {
        CurveOp::EcdsaVerify
    }

    fn register(&self, builder: &mut ServerBuilder<CurveSession>, which: usize) -> KeyId {
        builder.add_key(self.specs[which].clone()).unwrap()
    }

    /// Genuine signatures under one seeded signer, every third with
    /// its digest tampered. Genuine ones are valid by construction; the
    /// affine verifier pins every tampered one to `false`.
    fn traffic(&self, which: usize, seed: u64, count: usize) -> Vec<Pair<CurveSession>> {
        let spec = &self.specs[which];
        let n = &spec.order;
        let mut rng = StdRng::seed_from_u64(seed);
        let d = nonzero_below(&mut rng, n);
        let (qx, qy) = base_mul(spec, &d).expect("d < order");
        (0..count)
            .map(|j| {
                let z = Ubig::random_below(&mut rng, n);
                let (r, s) = ecdsa_sign(spec, &z, &d, &nonzero_below(&mut rng, n));
                let valid = j % 3 != 2;
                let z = if valid { z } else { z.modadd(&Ubig::one(), n) };
                let req = EcdsaRequest {
                    z,
                    r,
                    s,
                    qx: qx.clone(),
                    qy: qy.clone(),
                };
                assert_eq!(affine_verify(spec, &req), valid, "oracle disagrees");
                (CurveRequest::Ecdsa(req), CurveResponse::Verdict(valid))
            })
            .collect()
    }

    fn malformed(&self) -> Vec<(CurveRequest, MmmError)> {
        let (req, _) = self.traffic(0, 1, 1).remove(0);
        let CurveRequest::Ecdsa(mut req) = req else {
            unreachable!()
        };
        (req.qx, req.qy) = off_curve(&self.specs[0], &req.qx, &req.qy);
        let ecdh = EcdhRequest {
            scalar: Ubig::one(),
            qx: self.specs[0].gx.clone(),
            qy: self.specs[0].gy.clone(),
        };
        vec![
            (
                CurveRequest::Ecdsa(req),
                MmmError::PointNotOnCurve { lane: 0 },
            ),
            // Submitted under the wrong op.
            (
                CurveRequest::Ecdh(ecdh),
                MmmError::Config("Ecdh request submitted as EcdsaVerify".to_string()),
            ),
        ]
    }
}

pub struct EcdhCase {
    specs: [CurveSpec; 2],
}

impl EcdhCase {
    pub fn new() -> Self {
        EcdhCase {
            specs: [small_curve(0), small_curve(1)],
        }
    }
}

impl OpCase for EcdhCase {
    type S = CurveSession;

    fn name(&self) -> &'static str {
        "ecdh"
    }

    fn op(&self) -> CurveOp {
        CurveOp::Ecdh
    }

    fn register(&self, builder: &mut ServerBuilder<CurveSession>, which: usize) -> KeyId {
        builder.add_key(self.specs[which].clone()).unwrap()
    }

    /// Mirrored pairs — `(d_a, Q_b)` then `(d_b, Q_a)` — whose shared
    /// secret comes from the solo [`Curve`] and must agree both ways.
    fn traffic(&self, which: usize, seed: u64, count: usize) -> Vec<Pair<CurveSession>> {
        let spec = &self.specs[which];
        let mut f = FieldCtx::new(SoftwareEngine::new(MontgomeryParams::hardware_safe(
            &spec.p,
        )));
        let curve = Curve::new(&mut f, &spec.a, &spec.b);
        let mut solo = |k: &Ubig, (x, y): &(Ubig, Ubig)| {
            let pt = curve.point(&mut f, x, y);
            let prod = curve.scalar_mul(&mut f, k, &pt);
            curve.to_affine(&mut f, &prod).expect("prime order").0
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(count + 1);
        while out.len() < count {
            let da = nonzero_below(&mut rng, &spec.order);
            let db = nonzero_below(&mut rng, &spec.order);
            let qa = base_mul(spec, &da).expect("da < order");
            let qb = base_mul(spec, &db).expect("db < order");
            let secret = solo(&da, &qb);
            assert_eq!(solo(&db, &qa), secret, "mirrored derivations agree");
            for (scalar, (qx, qy)) in [(da, qb), (db, qa)] {
                let req = EcdhRequest { scalar, qx, qy };
                out.push((
                    CurveRequest::Ecdh(req),
                    CurveResponse::Secret(secret.clone()),
                ));
            }
        }
        out.truncate(count);
        out
    }

    fn malformed(&self) -> Vec<(CurveRequest, MmmError)> {
        let spec = &self.specs[0];
        let req = |scalar: Ubig, (qx, qy): (Ubig, Ubig)| {
            CurveRequest::Ecdh(EcdhRequest { scalar, qx, qy })
        };
        let g = (spec.gx.clone(), spec.gy.clone());
        vec![
            (
                req(Ubig::zero(), g.clone()),
                MmmError::ScalarOutOfRange { lane: 0 },
            ),
            (
                req(spec.order.clone(), g.clone()),
                MmmError::ScalarOutOfRange { lane: 0 },
            ),
            (
                req(Ubig::one(), off_curve(spec, &g.0, &g.1)),
                MmmError::PointNotOnCurve { lane: 0 },
            ),
        ]
    }
}
