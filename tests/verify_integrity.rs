//! The arithmetic-integrity suite: engine-level corruption injection
//! (`mmm_core::verify::faults`) driven through the CRT
//! verify-before-release countermeasure, on **every** backend.
//!
//! The contract under test (DESIGN.md §11): an injected corruption is
//! *never released* — it is either transparently corrected by a
//! verified retry, or surfaced as the typed
//! [`MmmError::IntegrityViolation`] naming the lane. A wrong answer
//! escaping `decrypt_crt` is the one outcome these tests make
//! impossible, because a faulty CRT half is exactly the Bellcore
//! fault-attack lever that factors `N`.

mod common;

use common::OpCase;
use montgomery_systolic::core::batch::try_mont_mul_many;
use montgomery_systolic::core::montgomery::mont_mul_alg2;
use montgomery_systolic::core::serve::Session;
use montgomery_systolic::core::verify::faults::CorruptionPlan;
use montgomery_systolic::core::verify::{
    Quarantine, VerifiedEngine, VerifyContext, VerifyPolicy, QUARANTINE_THRESHOLD,
};
use montgomery_systolic::core::{BatchMontMul, EngineConfig, EngineKind, MmmError};
use montgomery_systolic::ecc::serve::CurveSession;
use montgomery_systolic::rsa::{KeyedSession, RsaKeyPair};
use montgomery_systolic::Ubig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// One fixed keypair for the whole suite (generation dominates the
/// runtime of every individual case).
fn shared_key() -> &'static RsaKeyPair {
    static KEY: OnceLock<RsaKeyPair> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xB511C0);
        RsaKeyPair::generate(&mut rng, 64, 12)
    })
}

/// `lanes` ciphertexts of distinct small plaintexts under the shared
/// key, plus the expected decryptions.
fn ciphertexts(lanes: usize) -> (Vec<Ubig>, Vec<Ubig>) {
    let key = shared_key();
    let ms: Vec<Ubig> = (0..lanes).map(|k| Ubig::from(17 + 13 * k as u64)).collect();
    let cs: Vec<Ubig> = ms.iter().map(|m| m.modpow(&key.e, &key.n)).collect();
    (cs, ms)
}

/// A config with its own quarantine ledger and fault plan, so
/// parallel tests never observe each other's strikes or injections.
fn isolated_config(
    kind: EngineKind,
    policy: VerifyPolicy,
) -> (EngineConfig, Arc<CorruptionPlan>, Arc<Quarantine>) {
    let faults = Arc::new(CorruptionPlan::default());
    let quarantine = Arc::new(Quarantine::new());
    let config = EngineConfig::default()
        .with_backend(kind)
        .with_verify(policy)
        .with_faults(Arc::clone(&faults))
        .with_quarantine(Arc::clone(&quarantine));
    (config, faults, quarantine)
}

#[test]
fn crt_half_fault_is_corrected_transparently_on_every_backend() {
    let key = shared_key();
    let (cs, ms) = ciphertexts(6);
    for kind in EngineKind::ALL {
        let (config, faults, quarantine) = isolated_config(kind, VerifyPolicy::Full);
        faults.inject_crt_half_fault(3, 9, 1);
        let session = KeyedSession::new(key.clone(), config).unwrap();
        let got = session.decrypt_crt(&cs).unwrap();
        assert_eq!(got, ms, "{}: corrected result must be exact", kind.name());
        let stats = quarantine.stats();
        assert_eq!(faults.half_faults_fired(), 1, "{}", kind.name());
        assert!(
            stats.violations >= 1,
            "{}: fault must be detected",
            kind.name()
        );
        assert!(
            stats.corrected >= 1,
            "{}: fault must be corrected",
            kind.name()
        );
        assert!(stats.fallback_retries >= 1, "{}", kind.name());
    }
}

#[test]
fn persistent_corruption_surfaces_as_typed_integrity_violation() {
    let key = shared_key();
    let (cs, _ms) = ciphertexts(4);
    for kind in EngineKind::ALL {
        // Four armed faults: both halves of the first pass *and* both
        // halves of the fallback retry are corrupted — the layer must
        // withhold the plaintext rather than release it.
        let (config, faults, quarantine) = isolated_config(kind, VerifyPolicy::Full);
        faults.inject_crt_half_fault(2, 5, 4);
        let session = KeyedSession::new(key.clone(), config).unwrap();
        let err = session.decrypt_crt(&cs).unwrap_err();
        assert!(
            matches!(err, MmmError::IntegrityViolation { .. }),
            "{}: got {err:?}",
            kind.name()
        );
        assert!(quarantine.stats().violations >= 1, "{}", kind.name());
    }
}

#[test]
fn corrupted_pooled_param_residue_is_caught_before_release() {
    let key = shared_key();
    let (cs, ms) = ciphertexts(5);
    for kind in EngineKind::ALL {
        let (config, faults, quarantine) = isolated_config(kind, VerifyPolicy::Full);
        faults.inject_param_corruption(1, 1);
        let session = KeyedSession::new(key.clone(), config).unwrap();
        let got = session.decrypt_crt(&cs).unwrap();
        assert_eq!(got, ms, "{}", kind.name());
        assert_eq!(faults.param_faults_fired(), 1, "{}", kind.name());
        assert!(quarantine.stats().corrected >= 1, "{}", kind.name());
    }
}

#[test]
fn quarantined_backend_falls_back_to_a_healthy_one_and_stays_correct() {
    let key = shared_key();
    let (cs, ms) = ciphertexts(3);
    let (config, _faults, quarantine) = isolated_config(EngineKind::Cios52, VerifyPolicy::Full);
    for _ in 0..QUARANTINE_THRESHOLD {
        quarantine.record_violation(EngineKind::Cios52);
    }
    assert!(quarantine.is_quarantined(EngineKind::Cios52));
    let session = KeyedSession::new(key.clone(), config).unwrap();
    // Dispatch must route around the benched backend: the run still
    // succeeds, bit-exact, with zero new violations.
    let before = quarantine.stats().violations;
    let got = session.decrypt_crt(&cs).unwrap();
    assert_eq!(got, ms);
    assert_eq!(quarantine.stats().violations, before);
}

#[test]
fn off_policy_skips_verification_entirely() {
    let key = shared_key();
    let (cs, ms) = ciphertexts(4);
    let (config, _faults, quarantine) = isolated_config(EngineKind::Cios, VerifyPolicy::Off);
    let session = KeyedSession::new(key.clone(), config).unwrap();
    assert_eq!(session.decrypt_crt(&cs).unwrap(), ms);
    assert_eq!(quarantine.stats(), Default::default());
}

#[test]
fn sampled_residue_checks_catch_mont_mul_corruption_at_the_configured_rate() {
    // Engine level: arm a mont-mul flip on *every* call under
    // Sampled{one_in: 4}. Exactly every 4th call runs the shadow
    // check, so exactly calls/4 corruptions are caught and corrected;
    // the remainder deliberately escape (that is the sampling
    // trade-off the policy documents).
    let mut rng = StdRng::seed_from_u64(7);
    let params = montgomery_systolic::core::montgomery::MontgomeryParams::hardware_safe(
        &montgomery_systolic::core::modgen::random_odd_modulus(&mut rng, 96),
    );
    let faults = Arc::new(CorruptionPlan::default());
    let quarantine = Arc::new(Quarantine::new());
    let ctx = VerifyContext {
        policy: VerifyPolicy::Sampled { one_in: 4 },
        faults: Arc::clone(&faults),
        quarantine: Arc::clone(&quarantine),
    };
    let kind = EngineKind::Cios;
    let mut engine = VerifiedEngine::new(kind.build(params.clone()), kind, ctx);
    let x = montgomery_systolic::core::modgen::random_operand(&mut rng, &params);
    let y = montgomery_systolic::core::modgen::random_operand(&mut rng, &params);
    let calls = 32;
    for _ in 0..calls {
        faults.inject_mont_mul_flip(0, 3, 1);
        let _ = engine.mont_mul_batch(std::slice::from_ref(&x), std::slice::from_ref(&y));
    }
    assert_eq!(faults.mont_flips_fired(), calls);
    let stats = quarantine.stats();
    assert_eq!(stats.corrected, calls / 4, "one in four calls is checked");
    assert_eq!(stats.violations, calls / 4);
}

#[test]
fn try_mont_mul_many_honors_verify_policy_and_quarantine() {
    // The config-driven multiplication many-path runs on the same
    // verified, quarantine-aware shard engines as the modexp paths: an
    // injected flip is caught by the config's own ledger and corrected
    // before release, on every backend.
    let mut rng = StdRng::seed_from_u64(0x7A11);
    let params = montgomery_systolic::core::modgen::random_safe_params(&mut rng, 80);
    let operand =
        |rng: &mut StdRng| montgomery_systolic::core::modgen::random_operand(rng, &params);
    let xs: Vec<Ubig> = (0..100).map(|_| operand(&mut rng)).collect();
    let ys: Vec<Ubig> = (0..100).map(|_| operand(&mut rng)).collect();
    for kind in EngineKind::ALL {
        let (config, faults, quarantine) = isolated_config(kind, VerifyPolicy::Full);
        faults.inject_mont_mul_flip(2, 3, 1);
        let got = try_mont_mul_many(&params, &xs, &ys, &config).unwrap();
        assert_eq!(faults.mont_flips_fired(), 1, "{}", kind.name());
        assert_eq!(quarantine.stats().corrected, 1, "{}", kind.name());
        for (k, out) in got.iter().enumerate() {
            assert_eq!(
                *out,
                mont_mul_alg2(&params, &xs[k], &ys[k]),
                "{} lane {k}",
                kind.name()
            );
        }
    }
}

#[test]
fn ecc_sessions_honor_verify_policy_and_fault_plan() {
    // ECDSA verify and ECDH run on the same verified, quarantine-aware
    // shard engines as the RSA paths: one injected flip is caught by
    // the config's own ledger and corrected before release, on every
    // backend.
    fn check(case: &impl OpCase<S = CurveSession>) {
        let (reqs, want): (Vec<_>, Vec<_>) = case.traffic(0, 0xECC, 6).into_iter().unzip();
        for kind in EngineKind::ALL {
            let (config, faults, quarantine) = isolated_config(kind, VerifyPolicy::Full);
            let (server, id) = case.server(config);
            let session = server.session(id).unwrap();
            let clean = session.run_batch(case.op(), reqs.clone()).unwrap();
            assert_eq!(clean, want, "{} {}", case.name(), kind.name());
            faults.inject_mont_mul_flip(1, 3, 1);
            let got = session.run_batch(case.op(), reqs.clone()).unwrap();
            assert_eq!(got, clean, "{} {}", case.name(), kind.name());
            assert_eq!(faults.mont_flips_fired(), 1, "{}", kind.name());
            let stats = quarantine.stats();
            assert!(stats.violations >= 1, "{}", kind.name());
            assert!(stats.corrected >= 1, "{}", kind.name());
            server.shutdown();
        }
    }
    check(&common::EcdhCase::new());
    check(&common::EcdsaCase::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zero-miss: *every* single-bit corruption injected into a CRT
    /// half-run, at any lane and any bit position, on any backend, is
    /// caught by verify-before-release — the caller sees either the
    /// exact plaintexts (verified retry) or a typed integrity error,
    /// never a silently wrong answer.
    #[test]
    fn every_injected_crt_half_flip_is_caught(
        lane in 0usize..8,
        bit in 0usize..48,
        kind_ix in 0usize..EngineKind::ALL.len(),
    ) {
        let kind = EngineKind::ALL[kind_ix];
        let key = shared_key();
        let (cs, ms) = ciphertexts(8);
        let (config, faults, quarantine) = isolated_config(kind, VerifyPolicy::Full);
        faults.inject_crt_half_fault(lane, bit, 1);
        let session = KeyedSession::new(key.clone(), config).unwrap();
        match session.decrypt_crt(&cs) {
            Ok(got) => {
                prop_assert_eq!(got, ms, "released plaintexts must be exact");
                prop_assert!(quarantine.stats().violations >= 1, "fault was detected");
                prop_assert!(quarantine.stats().corrected >= 1, "fault was corrected");
            }
            Err(e) => {
                // Only the typed integrity error is an acceptable
                // failure — anything else is a contract break.
                prop_assert!(matches!(e, MmmError::IntegrityViolation { .. }), "{:?}", e);
            }
        }
        prop_assert_eq!(faults.half_faults_fired(), 1);
    }
}
