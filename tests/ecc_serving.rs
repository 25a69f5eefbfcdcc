//! The ECC serving surface end to end: batched ECDSA verification
//! against an independent known-answer vector and an in-test affine
//! signer, ECDH round trips, served ordering/error semantics, and
//! cross-backend result identity. Honors `MMM_ENGINE` through
//! `EngineConfig::from_env` so the CI backend sweep drives the same
//! assertions on every engine.

mod common;

use common::{aff_mul, await_until, ecdsa_sign};
use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::serve::{KeyId, Server};
use montgomery_systolic::core::{EngineConfig, EngineKind, HardeningMode, MmmError};
use montgomery_systolic::ecc::curves::{p256, CurveSpec};
use montgomery_systolic::ecc::serve::{
    CurveOp, CurveRequest, CurveResponse, CurveSession, EcdhRequest, EcdsaRequest,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn config() -> EngineConfig {
    EngineConfig::from_env().expect("clean MMM_* environment")
}

// The plain affine reference arithmetic (`aff_mul`, `ecdsa_sign`) is
// shared with the serving-plane suites in `tests/common`.

// ---------------------------------------------------------------------
// Known-answer test: RFC 6979 §A.2.5, P-256 + SHA-256, message
// "sample" — an externally published vector, independent of every
// line of this workspace.
// ---------------------------------------------------------------------

fn rfc6979_sample_request() -> EcdsaRequest {
    let hex = |s: &str| Ubig::from_hex(s).unwrap();
    EcdsaRequest {
        z: hex("AF2BDBE1AA9B6EC1E2ADE1D694F41FC71A831D0268E9891562113D8A62ADD1BF"),
        r: hex("EFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716"),
        s: hex("F7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8"),
        qx: hex("60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6"),
        qy: hex("7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299"),
    }
}

#[test]
fn ecdsa_rfc6979_p256_known_answer() {
    let session = CurveSession::new(p256(), config()).unwrap();
    let good = rfc6979_sample_request();
    let mut bad_s = good.clone();
    bad_s.s = bad_s.s.modadd(&Ubig::one(), &session.spec().order);
    let mut bad_z = good.clone();
    bad_z.z = bad_z.z.modadd(&Ubig::one(), &session.spec().order);
    let verdicts = session.verify_ecdsa(&[good.clone(), bad_s, bad_z]).unwrap();
    assert_eq!(verdicts, vec![true, false, false]);
    // Degenerate r/s are verdicts, not errors.
    let mut zero_r = good.clone();
    zero_r.r = Ubig::zero();
    let mut huge_s = good;
    huge_s.s = session.spec().order.clone();
    let verdicts = session.verify_ecdsa(&[zero_r, huge_s]).unwrap();
    assert_eq!(verdicts, vec![false, false]);
}

#[test]
fn ecdsa_round_trip_against_affine_signer() {
    let spec = p256();
    let session = CurveSession::new(spec.clone(), config()).unwrap();
    let mut rng = StdRng::seed_from_u64(1009);
    let g = Some((spec.gx.clone(), spec.gy.clone()));
    let mut reqs = Vec::new();
    for _ in 0..3 {
        let d = Ubig::random_below(&mut rng, &spec.order);
        let k = Ubig::random_below(&mut rng, &spec.order);
        let z = Ubig::random_bits(&mut rng, 256);
        let (qx, qy) = aff_mul(&spec.p, &spec.a, &d, &g).expect("d > 0");
        let (r, s) = ecdsa_sign(&spec, &z, &d, &k);
        reqs.push(EcdsaRequest { z, r, s, qx, qy });
    }
    let verdicts = session.verify_ecdsa(&reqs).unwrap();
    assert_eq!(
        verdicts,
        vec![true; reqs.len()],
        "genuine signatures verify"
    );
    // Cross-wire digests: every verdict flips.
    let mut crossed = reqs.clone();
    crossed[0].z = reqs[1].z.clone();
    crossed[1].z = reqs[2].z.clone();
    crossed[2].z = reqs[0].z.clone();
    let verdicts = session.verify_ecdsa(&crossed).unwrap();
    assert_eq!(verdicts, vec![false; crossed.len()]);
}

#[test]
fn ecdsa_rejects_off_curve_public_key() {
    let session = CurveSession::new(p256(), config()).unwrap();
    let mut req = rfc6979_sample_request();
    req.qy = req.qy.modadd(&Ubig::one(), &session.spec().p);
    let err = session
        .verify_ecdsa(&[rfc6979_sample_request(), req])
        .unwrap_err();
    assert!(matches!(err, MmmError::PointNotOnCurve { lane: 1 }));
}

// ---------------------------------------------------------------------
// ECDH on P-256: mirrored derivations agree; the shared secret
// matches the affine reference.
// ---------------------------------------------------------------------

#[test]
fn ecdh_p256_round_trip_matches_affine_reference() {
    let spec = p256();
    let session = CurveSession::new(spec.clone(), config()).unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    let g = Some((spec.gx.clone(), spec.gy.clone()));
    let da = Ubig::random_below(&mut rng, &spec.order);
    let db = Ubig::random_below(&mut rng, &spec.order);
    let qa = aff_mul(&spec.p, &spec.a, &da, &g).unwrap();
    let qb = aff_mul(&spec.p, &spec.a, &db, &g).unwrap();
    let sa = session
        .ecdh(&[EcdhRequest {
            scalar: da.clone(),
            qx: qb.0.clone(),
            qy: qb.1.clone(),
        }])
        .unwrap();
    let sb = session
        .ecdh(&[EcdhRequest {
            scalar: db.clone(),
            qx: qa.0.clone(),
            qy: qa.1.clone(),
        }])
        .unwrap();
    assert_eq!(sa, sb, "mirrored derivations agree");
    let reference = aff_mul(&spec.p, &spec.a, &da, &Some(qb)).unwrap().0;
    assert_eq!(sa[0], reference, "matches the affine reference");
}

// ---------------------------------------------------------------------
// Cross-backend and hardened-mode result identity (tiny curve: cheap
// enough to run every engine).
// ---------------------------------------------------------------------

/// y² = x³ + 2x + 3 over GF(97), G = (3, 6) of order 5.
fn tiny_spec() -> CurveSpec {
    CurveSpec {
        name: "tiny97",
        p: Ubig::from(97u64),
        a: Ubig::from(2u64),
        b: Ubig::from(3u64),
        gx: Ubig::from(3u64),
        gy: Ubig::from(6u64),
        order: Ubig::from(5u64),
    }
}

#[test]
fn backends_agree_on_ecdh_and_base_multiples() {
    let reference = {
        let session = CurveSession::new(tiny_spec(), EngineConfig::default()).unwrap();
        session
            .scalar_mul_base(&[Ubig::from(1u64), Ubig::from(2u64), Ubig::from(3u64)])
            .unwrap()
    };
    for kind in EngineKind::ALL {
        let session =
            CurveSession::new(tiny_spec(), EngineConfig::default().with_backend(kind)).unwrap();
        let got = session
            .scalar_mul_base(&[Ubig::from(1u64), Ubig::from(2u64), Ubig::from(3u64)])
            .unwrap();
        assert_eq!(got, reference, "kind={kind:?}");
        let q = got[1].clone().unwrap();
        let secret = session
            .ecdh(&[EcdhRequest {
                scalar: Ubig::from(3u64),
                qx: q.0,
                qy: q.1,
            }])
            .unwrap();
        // [3]([2]G) = [6]G = [1]G (order 5).
        let g1 = reference[0].clone().unwrap();
        assert_eq!(secret[0], g1.0, "kind={kind:?}");
    }
}

#[test]
fn hardened_session_is_result_identical() {
    let spec = p256();
    let plain = CurveSession::new(spec.clone(), config()).unwrap();
    let hardened =
        CurveSession::new(spec, config().with_hardening(HardeningMode::Hardened)).unwrap();
    let req = rfc6979_sample_request();
    assert_eq!(
        plain.verify_ecdsa(std::slice::from_ref(&req)).unwrap(),
        hardened.verify_ecdsa(&[req]).unwrap()
    );
    let ks = [Ubig::from(0xDEAD_BEEFu64), Ubig::from(7u64)];
    assert_eq!(
        plain.scalar_mul_base(&ks).unwrap(),
        hardened.scalar_mul_base(&ks).unwrap()
    );
}

// ---------------------------------------------------------------------
// Collector semantics, now the serving plane's shard aggregation:
// ordering (one ticket per request), submit-time validation, fill
// flushes at the configured width, and the shutdown drain.
// ---------------------------------------------------------------------

/// A one-worker curve server whose deadline never fires within a test:
/// only a full shard or the shutdown drain can flush.
fn fill_only_server(spec: CurveSpec, config: EngineConfig) -> (Server<CurveSession>, KeyId) {
    let config = config
        .with_workers(1)
        .unwrap()
        .with_flush_deadline(Duration::from_secs(600));
    let mut builder = Server::builder(config);
    let id = builder.add_key(spec).unwrap();
    (builder.build().unwrap(), id)
}

#[test]
fn ecdsa_collector_orders_validates_and_drains() {
    let spec = p256();
    let (server, id) = fill_only_server(spec.clone(), config());
    let good = rfc6979_sample_request();
    let mut tampered = good.clone();
    tampered.s = tampered.s.modadd(&Ubig::one(), &spec.order);
    let submit =
        |req: EcdsaRequest| server.try_submit(id, CurveOp::EcdsaVerify, CurveRequest::Ecdsa(req));
    let tickets = [submit(good.clone()).unwrap(), submit(tampered).unwrap()];
    // An off-curve key bounces at submit; the shard is untouched.
    let mut off = good;
    off.qy = off.qy.modadd(&Ubig::one(), &spec.p);
    assert!(matches!(
        submit(off),
        Err(MmmError::PointNotOnCurve { lane: 0 })
    ));
    await_until(|| server.pending_depth() == 2);
    let stats = server.stats();
    assert_eq!((stats.fill_flushes, stats.rejected_invalid), (0, 1));
    // Shutdown drains the pending shard and answers each ticket.
    server.shutdown();
    let verdicts: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    assert_eq!(
        verdicts,
        vec![
            Ok(CurveResponse::Verdict(true)),
            Ok(CurveResponse::Verdict(false))
        ]
    );
}

#[test]
fn ecdh_collector_matches_direct_calls_across_shards() {
    // Shard width 2 splits the 5 requests into two fill flushes and a
    // remainder the shutdown drain answers; each ticket still carries
    // its own request's secret.
    let (server, id) = fill_only_server(
        tiny_spec(),
        EngineConfig::default()
            .with_shard_lanes(2)
            .expect("2 is a valid shard width"),
    );
    let session = server.session(id).unwrap();
    let pts: Vec<(Ubig, Ubig)> = session
        .scalar_mul_base(&[
            Ubig::from(1u64),
            Ubig::from(2u64),
            Ubig::from(3u64),
            Ubig::from(4u64),
            Ubig::from(1u64),
        ])
        .unwrap()
        .into_iter()
        .map(Option::unwrap)
        .collect();
    let reqs: Vec<EcdhRequest> = pts
        .iter()
        .enumerate()
        .map(|(i, (qx, qy))| EcdhRequest {
            scalar: Ubig::from((i % 4) as u64 + 1),
            qx: qx.clone(),
            qy: qy.clone(),
        })
        .collect();
    let direct = session.ecdh(&reqs).unwrap();
    let tickets: Vec<_> = reqs
        .iter()
        .map(|r| {
            server
                .try_submit(id, CurveOp::Ecdh, CurveRequest::Ecdh(r.clone()))
                .unwrap()
        })
        .collect();
    await_until(|| tickets[..4].iter().all(|t| t.is_ready()) && server.pending_depth() == 1);
    assert_eq!(server.stats().fill_flushes, 2);
    server.shutdown();
    for (ticket, want) in tickets.into_iter().zip(direct) {
        assert_eq!(ticket.wait(), Ok(CurveResponse::Secret(want)));
    }
}
