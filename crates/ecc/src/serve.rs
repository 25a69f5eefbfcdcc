//! The ECC serving surface: batched ECDSA verification and ECDH
//! shared-secret derivation on the pooled batch engines — the second
//! tenant on the stack the RSA front-end serves from.
//!
//! [`CurveSession`] mirrors `mmm_rsa::KeyedSession`: one handle owning
//! the curve group, its pooled Montgomery parameters and the engine
//! configuration, built once (validating the curve and pre-warming one
//! engine) and reused for every request. Every call runs on the
//! workspace's one sharding core ([`mmm_core::pool::run_lanes`]), so
//! curve arithmetic gets the same backend dispatch, quarantine
//! rerouting, hardening, verify policy and corruption hooks as the RSA
//! paths; every method returns `Result<_, MmmError>` so one malformed
//! request bounces that *call* with the offending lane named, never
//! the process.
//!
//! `CurveSession` also implements the serving plane's
//! [`Session`] trait ([`CurveOp`] selects ECDSA verify or ECDH), so a
//! [`mmm_core::serve::Server`] over curve sessions gives individually
//! submitted requests the same fill-or-deadline flushing, bounded-queue
//! backpressure and panic isolation as the RSA front-end: admission
//! validates each request (a bad one bounces without poisoning its
//! shard), and each answer arrives on its own ticket.
//!
//! **Semantics note.** An ECDSA signature that is merely *invalid*
//! (bad `r`/`s` range, wrong signer) is a `false` result — a verdict,
//! not an error. A structurally malformed request (public key not on
//! the curve) is a typed error naming the lane, because no verdict
//! about it is meaningful.

use crate::batch_curve::{BatchCurve, PointLanes};
use crate::batch_field::BatchFieldCtx;
use crate::curve::Point;
use crate::curves::{check_nonsingular, CurveSpec};
use mmm_bigint::Ubig;
use mmm_core::error::MmmError;
use mmm_core::montgomery::MontgomeryParams;
use mmm_core::pool::{self, PooledEngine};
use mmm_core::serve::Session;
use mmm_core::{EngineConfig, EngineKind, VerifiedEngine};

/// One ECDSA verification request: message digest (already truncated
/// to the order's bit length per FIPS 186-4 §6.4), signature pair and
/// the signer's affine public key.
#[derive(Debug, Clone)]
pub struct EcdsaRequest {
    /// Message digest `z`.
    pub z: Ubig,
    /// Signature component `r`.
    pub r: Ubig,
    /// Signature component `s`.
    pub s: Ubig,
    /// Public-key x-coordinate.
    pub qx: Ubig,
    /// Public-key y-coordinate.
    pub qy: Ubig,
}

/// One ECDH shared-secret request: our private scalar and the peer's
/// affine public key.
#[derive(Debug, Clone)]
pub struct EcdhRequest {
    /// Private scalar `d ∈ [1, order)`.
    pub scalar: Ubig,
    /// Peer public-key x-coordinate.
    pub qx: Ubig,
    /// Peer public-key y-coordinate.
    pub qy: Ubig,
}

/// A serving session bound to one curve group: owns the
/// [`CurveSpec`], its pooled Montgomery parameters and the engine
/// configuration. Construction validates the group (non-singular
/// curve, base point on it, order > 1) and pre-warms one engine in
/// the process-wide pool ([`pool::prewarm`]).
///
/// ```
/// use mmm_bigint::Ubig;
/// use mmm_core::{EngineConfig, MmmError};
/// use mmm_ecc::serve::{CurveSession, EcdhRequest};
/// use mmm_ecc::curves::p256;
///
/// # fn main() -> Result<(), MmmError> {
/// let session = CurveSession::new(p256(), EngineConfig::default())?;
/// // Alice and Bob derive the same secret from mirrored requests.
/// let (da, db) = (Ubig::from(1001u64), Ubig::from(2002u64));
/// let qa = session.scalar_mul_base(&[da.clone()])?[0].clone().unwrap();
/// let qb = session.scalar_mul_base(&[db.clone()])?[0].clone().unwrap();
/// let sa = session.ecdh(&[EcdhRequest { scalar: da, qx: qb.0, qy: qb.1 }])?;
/// let sb = session.ecdh(&[EcdhRequest { scalar: db, qx: qa.0, qy: qa.1 }])?;
/// assert_eq!(sa, sb);
/// # Ok(()) }
/// ```
#[derive(Debug, Clone)]
pub struct CurveSession {
    spec: CurveSpec,
    config: EngineConfig,
    params: MontgomeryParams,
}

impl CurveSession {
    /// Builds a session for `spec` under `config`.
    ///
    /// Fails with [`MmmError::SingularCurve`] if the discriminant
    /// vanishes, [`MmmError::PointNotOnCurve`] if the base point does
    /// not satisfy the curve equation, [`MmmError::Config`] for a
    /// degenerate order or broken `MMM_*` environment, and
    /// [`MmmError::HardwareUnsafeWidth`] if the backend cannot run
    /// the pooled parameters (which hardware-safe widths never
    /// trigger).
    pub fn new(spec: CurveSpec, config: EngineConfig) -> Result<Self, MmmError> {
        check_nonsingular(&spec.p, &spec.a, &spec.b)?;
        if !spec.on_curve(&spec.gx, &spec.gy) {
            return Err(MmmError::PointNotOnCurve { lane: 0 });
        }
        if spec.order <= Ubig::one() {
            return Err(MmmError::Config(format!(
                "curve {:?} order must exceed 1",
                spec.name
            )));
        }
        let params = pool::try_global()?.params_for(&spec.p);
        pool::prewarm(&config, &[&params])?;
        Ok(CurveSession {
            spec,
            config,
            params,
        })
    }

    /// The session's curve group.
    pub fn spec(&self) -> &CurveSpec {
        &self.spec
    }

    /// The session's engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The multiplier backend this session runs on.
    pub fn backend(&self) -> EngineKind {
        self.config.backend()
    }

    /// Batched fixed-base scalar multiplication: `[ks[k]]·G` in affine
    /// plain coordinates, `None` where the multiple is the identity.
    /// The building block under key generation and the doctest above;
    /// scalars are reduced mod the group order.
    pub fn scalar_mul_base(&self, ks: &[Ubig]) -> Result<Vec<Option<(Ubig, Ubig)>>, MmmError> {
        if ks.is_empty() {
            return Ok(Vec::new());
        }
        let reduced: Vec<Ubig> = ks.iter().map(|k| k.rem(&self.spec.order)).collect();
        self.run_lanes(ks.len(), |f, curve, g, lanes| {
            let base = PointLanes::splat(g, lanes.len());
            let acc = curve.scalar_mul(f, &reduced[lanes], &base, None);
            Ok(curve.to_affine(f, &acc))
        })
    }

    /// Batched ECDSA verification (FIPS 186-4 §6.4): one verdict per
    /// request, in order. Range-invalid `r`/`s` or a failed equation
    /// is `false`; a public key off the curve is
    /// [`MmmError::PointNotOnCurve`] naming the request index. Empty
    /// input is `Ok(vec![])`.
    pub fn verify_ecdsa(&self, reqs: &[EcdsaRequest]) -> Result<Vec<bool>, MmmError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        // Structural validation up front, with global lane indices.
        for (lane, req) in reqs.iter().enumerate() {
            self.check_key(&req.qx, &req.qy, lane)?;
        }
        let n = &self.spec.order;
        let one = Ubig::one();
        // Per-request scalar precomputation (plain arithmetic): w =
        // s⁻¹, u1 = z·w, u2 = r·w mod order. Range-invalid requests
        // keep placeholder scalars and a dead verdict mask.
        struct Prepared {
            live: bool,
            u1: Ubig,
            u2: Ubig,
        }
        let prepared: Vec<Prepared> = reqs
            .iter()
            .map(|req| {
                let in_range = !req.r.is_zero() && req.r < *n && !req.s.is_zero() && req.s < *n;
                match (in_range, req.s.modinv(n)) {
                    (true, Some(w)) => Prepared {
                        live: true,
                        u1: req.z.rem(n).modmul(&w, n),
                        u2: req.r.modmul(&w, n),
                    },
                    _ => Prepared {
                        live: false,
                        u1: one.clone(),
                        u2: one.clone(),
                    },
                }
            })
            .collect();
        self.run_lanes(reqs.len(), |f, curve, g, lanes| {
            let (sreqs, sprep) = (&reqs[lanes.clone()], &prepared[lanes]);
            let xy: Vec<(Ubig, Ubig)> =
                sreqs.iter().map(|r| (r.qx.clone(), r.qy.clone())).collect();
            // Pre-validated above; an error here would be an
            // engine-level fault and is surfaced as-is.
            let q = curve.try_points(f, &xy)?;
            let u1: Vec<Ubig> = sprep.iter().map(|p| p.u1.clone()).collect();
            let u2: Vec<Ubig> = sprep.iter().map(|p| p.u2.clone()).collect();
            let gbase = PointLanes::splat(g, sreqs.len());
            let r1 = curve.scalar_mul(f, &u1, &gbase, None);
            let r2 = curve.scalar_mul(f, &u2, &q, None);
            let sum = curve.add(f, &r1, &r2);
            let affine = curve.to_affine(f, &sum);
            Ok(sreqs
                .iter()
                .zip(sprep)
                .zip(affine)
                .map(|((req, prep), aff)| {
                    prep.live && aff.map(|(x, _)| x.rem(n) == req.r).unwrap_or(false)
                })
                .collect())
        })
    }

    /// Batched ECDH (SP 800-56A style): the shared secret is the
    /// affine x-coordinate of `[d]·Q`, one per request, in order.
    ///
    /// A scalar outside `[1, order)` is
    /// [`MmmError::ScalarOutOfRange`], a peer key off the curve is
    /// [`MmmError::PointNotOnCurve`] (both naming the request index —
    /// the on-curve check is the standard defense against
    /// invalid-curve key-extraction attacks). A derivation landing on
    /// the identity (impossible for a prime-order group with
    /// validated inputs, reachable on composite-order test curves) is
    /// also [`MmmError::ScalarOutOfRange`]. Empty input is
    /// `Ok(vec![])`.
    pub fn ecdh(&self, reqs: &[EcdhRequest]) -> Result<Vec<Ubig>, MmmError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        for (lane, req) in reqs.iter().enumerate() {
            self.check_ecdh(req, lane)?;
        }
        self.run_lanes(reqs.len(), |f, curve, _, lanes| {
            let start = lanes.start;
            let sreqs = &reqs[lanes];
            let xy: Vec<(Ubig, Ubig)> =
                sreqs.iter().map(|r| (r.qx.clone(), r.qy.clone())).collect();
            let q = curve.try_points(f, &xy)?;
            let ks: Vec<Ubig> = sreqs.iter().map(|r| r.scalar.clone()).collect();
            let acc = curve.scalar_mul(f, &ks, &q, None);
            let affine = curve.to_affine(f, &acc);
            affine
                .into_iter()
                .enumerate()
                .map(|(k, aff)| {
                    aff.map(|(x, _)| x)
                        .ok_or(MmmError::ScalarOutOfRange { lane: start + k })
                })
                .collect()
        })
    }

    /// A public key off the curve is [`MmmError::PointNotOnCurve`]
    /// naming `lane`.
    fn check_key(&self, qx: &Ubig, qy: &Ubig, lane: usize) -> Result<(), MmmError> {
        if self.spec.on_curve(qx, qy) {
            Ok(())
        } else {
            Err(MmmError::PointNotOnCurve { lane })
        }
    }

    /// An ECDH scalar outside `[1, order)` is
    /// [`MmmError::ScalarOutOfRange`], a peer key off the curve is
    /// [`MmmError::PointNotOnCurve`], both naming `lane`.
    fn check_ecdh(&self, req: &EcdhRequest, lane: usize) -> Result<(), MmmError> {
        if req.scalar.is_zero() || req.scalar >= self.spec.order {
            return Err(MmmError::ScalarOutOfRange { lane });
        }
        self.check_key(&req.qx, &req.qy, lane)
    }

    /// Runs `run` per shard of `lanes` requests on the workspace's one
    /// sharding core ([`pool::run_lanes`]: dispatch, quarantine,
    /// hardening, verify policy, fault plan), handing it a field
    /// context on the shard's verified engine, the curve, the
    /// Montgomery-domain base point and the shard's global lane range.
    fn run_lanes<R: Send>(
        &self,
        lanes: usize,
        run: impl Fn(
                &mut BatchFieldCtx<VerifiedEngine<PooledEngine>>,
                &BatchCurve,
                &Point,
                std::ops::Range<usize>,
            ) -> Result<Vec<R>, MmmError>
            + Sync,
    ) -> Result<Vec<R>, MmmError> {
        pool::run_lanes(&self.params, &self.config, lanes, |engine, lanes| {
            let mut f = BatchFieldCtx::new(engine);
            let curve = BatchCurve::try_new(&mut f, &self.spec.a, &self.spec.b)?;
            let g = f.to_mont(&[self.spec.gx.clone(), self.spec.gy.clone(), Ubig::one()]);
            let [x, y, z]: [Ubig; 3] = g.try_into().expect("three coordinates in, three out");
            run(&mut f, &curve, &Point { x, y, z }, lanes)
        })
    }
}

/// Which operation a served curve request asks for; the serving plane
/// shards pending requests by `(key, op)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CurveOp {
    /// ECDSA verification ([`CurveSession::verify_ecdsa`]).
    EcdsaVerify,
    /// ECDH shared-secret derivation ([`CurveSession::ecdh`]).
    Ecdh,
}

/// One request submitted to a server over [`CurveSession`]s.
#[derive(Debug, Clone)]
pub enum CurveRequest {
    /// For [`CurveOp::EcdsaVerify`].
    Ecdsa(EcdsaRequest),
    /// For [`CurveOp::Ecdh`].
    Ecdh(EcdhRequest),
}

impl CurveRequest {
    /// The op this request belongs to — pass it to `try_submit`.
    pub fn op(&self) -> CurveOp {
        match self {
            CurveRequest::Ecdsa(_) => CurveOp::EcdsaVerify,
            CurveRequest::Ecdh(_) => CurveOp::Ecdh,
        }
    }
}

/// One answer from a server over [`CurveSession`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CurveResponse {
    /// An ECDSA verdict.
    Verdict(bool),
    /// An ECDH shared secret (affine x-coordinate).
    Secret(Ubig),
}

impl TryFrom<(CurveSpec, EngineConfig)> for CurveSession {
    type Error = MmmError;

    /// [`CurveSession::new`] — what `ServerBuilder::add_key` calls.
    fn try_from((spec, config): (CurveSpec, EngineConfig)) -> Result<Self, MmmError> {
        CurveSession::new(spec, config)
    }
}

impl Session for CurveSession {
    type Op = CurveOp;
    type Request = CurveRequest;
    type Response = CurveResponse;

    /// Validates one request like the batch methods validate each
    /// lane: an ECDH scalar outside `[1, order)` is
    /// [`MmmError::ScalarOutOfRange`], a public key off the curve is
    /// [`MmmError::PointNotOnCurve`] (both with `lane: 0`), and a
    /// request whose kind differs from `op` is [`MmmError::Config`].
    /// Range-invalid ECDSA `r`/`s` are admitted and verdict `false`.
    fn admit(&self, op: CurveOp, request: &CurveRequest) -> Result<(), MmmError> {
        if request.op() != op {
            return Err(MmmError::Config(format!(
                "{:?} request submitted as {op:?}",
                request.op()
            )));
        }
        match request {
            CurveRequest::Ecdsa(r) => self.check_key(&r.qx, &r.qy, 0),
            CurveRequest::Ecdh(r) => self.check_ecdh(r, 0),
        }
    }

    fn run_batch(
        &self,
        op: CurveOp,
        requests: Vec<CurveRequest>,
    ) -> Result<Vec<CurveResponse>, MmmError> {
        // Admission pinned every request's kind to `op`; a stray one
        // fails the shard rather than shifting answers between tickets.
        fn unpack<T>(
            requests: Vec<CurveRequest>,
            op: CurveOp,
            pick: fn(CurveRequest) -> Option<T>,
        ) -> Result<Vec<T>, MmmError> {
            requests
                .into_iter()
                .map(|r| {
                    pick(r)
                        .ok_or_else(|| MmmError::Config(format!("stray request in a {op:?} shard")))
                })
                .collect()
        }
        match op {
            CurveOp::EcdsaVerify => {
                let reqs = unpack(requests, op, |r| match r {
                    CurveRequest::Ecdsa(r) => Some(r),
                    CurveRequest::Ecdh(_) => None,
                })?;
                let verdicts = self.verify_ecdsa(&reqs)?;
                Ok(verdicts.into_iter().map(CurveResponse::Verdict).collect())
            }
            CurveOp::Ecdh => {
                let reqs = unpack(requests, op, |r| match r {
                    CurveRequest::Ecdh(r) => Some(r),
                    CurveRequest::Ecdsa(_) => None,
                })?;
                let secrets = self.ecdh(&reqs)?;
                Ok(secrets.into_iter().map(CurveResponse::Secret).collect())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::p256;
    use mmm_core::serve::Server;

    /// The solo fixture as a spec: y² = x³ + 2x + 3 over GF(97),
    /// G = (3, 6), with the order of G brute-forced from the affine
    /// group law.
    fn tiny_spec() -> CurveSpec {
        CurveSpec {
            name: "tiny97",
            p: Ubig::from(97u64),
            a: Ubig::from(2u64),
            b: Ubig::from(3u64),
            gx: Ubig::from(3u64),
            gy: Ubig::from(6u64),
            order: Ubig::from(tiny_order()),
        }
    }

    /// Order of G = (3,6) on y² = x³ + 2x + 3 / GF(97) by brute force
    /// over the affine group law.
    fn tiny_order() -> u64 {
        const P: u64 = 97;
        const A: u64 = 2;
        fn inv(x: u64) -> u64 {
            let (mut acc, mut base, mut e) = (1u64, x % P, P - 2);
            while e > 0 {
                if e & 1 == 1 {
                    acc = acc * base % P;
                }
                base = base * base % P;
                e >>= 1;
            }
            acc
        }
        let mut order = 1u64;
        let mut acc = Some((3u64, 6u64));
        while let Some((x1, y1)) = acc {
            order += 1;
            let (x2, y2) = (3u64, 6u64);
            acc = if x1 == x2 && (y1 + y2) % P == 0 {
                None
            } else {
                let l = if x1 == x2 && y1 == y2 {
                    (3 * x1 % P * x1 % P + A) % P * inv(2 * y1 % P) % P
                } else {
                    (y2 + P - y1) % P * inv((x2 + P - x1) % P) % P
                };
                let x3 = (l * l % P + 2 * P - x1 - x2) % P;
                Some((x3, (l * ((x1 + P - x3) % P) % P + P - y1) % P))
            };
        }
        order
    }

    #[test]
    fn session_rejects_bad_specs() {
        let mut singular = tiny_spec();
        singular.a = Ubig::zero();
        singular.b = Ubig::zero();
        assert!(matches!(
            CurveSession::new(singular, EngineConfig::default()),
            Err(MmmError::SingularCurve)
        ));
        let mut off = tiny_spec();
        off.gy = Ubig::from(7u64);
        assert!(matches!(
            CurveSession::new(off, EngineConfig::default()),
            Err(MmmError::PointNotOnCurve { lane: 0 })
        ));
        let mut degenerate = tiny_spec();
        degenerate.order = Ubig::one();
        assert!(matches!(
            CurveSession::new(degenerate, EngineConfig::default()),
            Err(MmmError::Config(_))
        ));
    }

    #[test]
    fn tiny_session_round_trips_ecdh() {
        let session = CurveSession::new(tiny_spec(), EngineConfig::default()).unwrap();
        // G has order 5 on the tiny fixture — keep scalars in [1, 5).
        let (da, db) = (Ubig::from(2u64), Ubig::from(3u64));
        let qa = session.scalar_mul_base(std::slice::from_ref(&da)).unwrap()[0]
            .clone()
            .unwrap();
        let qb = session.scalar_mul_base(std::slice::from_ref(&db)).unwrap()[0]
            .clone()
            .unwrap();
        let sa = session
            .ecdh(&[EcdhRequest {
                scalar: da,
                qx: qb.0,
                qy: qb.1,
            }])
            .unwrap();
        let sb = session
            .ecdh(&[EcdhRequest {
                scalar: db,
                qx: qa.0,
                qy: qa.1,
            }])
            .unwrap();
        assert_eq!(sa, sb);
    }

    #[test]
    fn ecdh_validates_requests() {
        let session = CurveSession::new(tiny_spec(), EngineConfig::default()).unwrap();
        let g = session.scalar_mul_base(&[Ubig::from(2u64)]).unwrap()[0]
            .clone()
            .unwrap();
        let bad_scalar = EcdhRequest {
            scalar: Ubig::zero(),
            qx: g.0.clone(),
            qy: g.1.clone(),
        };
        let ok = EcdhRequest {
            scalar: Ubig::from(3u64),
            qx: g.0.clone(),
            qy: g.1.clone(),
        };
        let err = session.ecdh(&[ok.clone(), bad_scalar]).unwrap_err();
        assert!(matches!(err, MmmError::ScalarOutOfRange { lane: 1 }));
        let off_curve = EcdhRequest {
            scalar: Ubig::from(3u64),
            qx: g.0.clone(),
            qy: g.1.modadd(&Ubig::one(), &session.spec().p),
        };
        let err = session.ecdh(&[off_curve]).unwrap_err();
        assert!(matches!(err, MmmError::PointNotOnCurve { lane: 0 }));
    }

    #[test]
    fn p256_session_builds_and_multiplies() {
        let session = CurveSession::new(p256(), EngineConfig::default()).unwrap();
        // [1]G = G.
        let got = session.scalar_mul_base(&[Ubig::one()]).unwrap();
        let (x, y) = got[0].clone().unwrap();
        assert_eq!(x, session.spec().gx);
        assert_eq!(y, session.spec().gy);
        // [order]G = ∞.
        let got = session
            .scalar_mul_base(&[session.spec().order.clone()])
            .unwrap();
        assert!(got[0].is_none());
    }

    #[test]
    fn collectors_submit_validate_and_flush_in_order() {
        // The serving plane's shard aggregation is the collector: every
        // request is validated at submit and answered on its own ticket.
        let config = EngineConfig::default()
            .with_workers(1)
            .unwrap()
            .with_flush_deadline(std::time::Duration::from_millis(1));
        let mut builder = Server::<CurveSession>::builder(config);
        let id = builder.add_key(tiny_spec()).unwrap();
        let server = builder.build().unwrap();
        let session = server.session(id).unwrap();
        let pts: Vec<(Ubig, Ubig)> = session
            .scalar_mul_base(&[Ubig::from(2u64), Ubig::from(3u64), Ubig::from(4u64)])
            .unwrap()
            .into_iter()
            .map(Option::unwrap)
            .collect();
        let reqs: Vec<EcdhRequest> = pts
            .iter()
            .enumerate()
            .map(|(i, (qx, qy))| EcdhRequest {
                scalar: Ubig::from(i as u64 + 1),
                qx: qx.clone(),
                qy: qy.clone(),
            })
            .collect();
        let tickets: Vec<_> = reqs
            .iter()
            .map(|r| {
                server
                    .try_submit(id, CurveOp::Ecdh, CurveRequest::Ecdh(r.clone()))
                    .unwrap()
            })
            .collect();
        let mut bad = reqs[0].clone();
        bad.scalar = Ubig::zero();
        assert!(matches!(
            server.try_submit(id, CurveOp::Ecdh, CurveRequest::Ecdh(bad)),
            Err(MmmError::ScalarOutOfRange { lane: 0 })
        ));
        assert!(matches!(
            server.try_submit(
                id,
                CurveOp::EcdsaVerify,
                CurveRequest::Ecdh(reqs[0].clone())
            ),
            Err(MmmError::Config(_))
        ));
        for (ticket, req) in tickets.into_iter().zip(&reqs) {
            let direct = session.ecdh(std::slice::from_ref(req)).unwrap();
            assert_eq!(ticket.wait(), Ok(CurveResponse::Secret(direct[0].clone())));
        }
        assert_eq!(server.stats().rejected_invalid, 2);
        server.shutdown();
    }
}
