//! The batched RSA CRT decryption core behind
//! [`KeyedSession::decrypt_crt`](crate::server::KeyedSession::decrypt_crt)
//! — the throughput flagship of the many-client serving path.
//!
//! One RSA key serves many requests: all lanes share the modulus, which
//! is exactly the shape the batch engines accelerate. Each
//! `shard_lanes`-wide shard is split into **two half-width batch runs**
//! (mod `p` and mod `q`), each scanned with the fixed-window
//! exponentiator on a warm engine from the per-key pool
//! ([`mmm_core::pool`]), and the halves are recombined per lane with
//! Garner's formula — the standard ~4× CRT speedup the paper's
//! future-work section alludes to, realized on the batch engine
//! (half-width halves both the wave band per multiplication and the
//! exponent length). Like the scalar [`crate::signing`] API this is
//! textbook RSA — no hash or padding; the exercise is the
//! exponentiator, as in the paper.

use crate::keys::RsaKeyPair;
use mmm_bigint::Ubig;
use mmm_core::error::OperandBound;
use mmm_core::expo_batch::try_modexp_many_shared;
use mmm_core::montgomery::MontgomeryParams;
use mmm_core::pool;
use mmm_core::verify::faults::inert_plan;
use mmm_core::{BatchModExp, EngineConfig, EngineKind, MmmError, ScalarSet, VerifyPolicy};
use std::borrow::Cow;

/// Everything one CRT batch run needs, bundled so the compute and
/// verify helpers share a single signature.
struct CrtPlan<'a> {
    key: &'a RsaKeyPair,
    pparams: &'a MontgomeryParams,
    qparams: &'a MontgomeryParams,
    config: &'a EngineConfig,
}

/// The CRT decryption core behind
/// [`crate::server::KeyedSession::decrypt_crt`]: validates inputs
/// as typed errors, runs each CRT half through the
/// **shared-exponent** windowed batch scan (each half's scan reads
/// its digits straight from `d_p`/`d_q`), and — under any
/// [`VerifyPolicy`] other than `Off` — applies the
/// **verify-before-release** Bellcore/Lenstra countermeasure: every
/// recombined plaintext is re-encrypted (`m^e mod N`, cheap since `e`
/// is small) and compared with the submitted ciphertext *before* it
/// leaves this function. A mismatched lane is charged to the backend
/// that produced it and retried once on the next-weaker healthy
/// backend ([`EngineKind::weaker`]); a lane that is still wrong
/// surfaces as [`MmmError::IntegrityViolation`] naming the lane —
/// never as a key-leaking faulty plaintext.
///
/// Dispatch is quarantine-aware: both halves run on the backend
/// [`pool::dispatch_kind`] picks for the pair `{p, q}`.
pub(crate) fn decrypt_crt_core(
    key: &RsaKeyPair,
    pparams: &MontgomeryParams,
    qparams: &MontgomeryParams,
    cs: &[Ubig],
    config: &EngineConfig,
) -> Result<Vec<Ubig>, MmmError> {
    for (k, c) in cs.iter().enumerate() {
        if c >= &key.n {
            return Err(MmmError::OperandOutOfRange {
                lane: k,
                bound: OperandBound::N,
            });
        }
    }
    let run_kind = pool::dispatch_kind(config, &[pparams, qparams])?;
    let plan = CrtPlan {
        key,
        pparams,
        qparams,
        config,
    };
    let mut ms = crt_halves(&plan, cs, run_kind)?;
    if config.verify() == VerifyPolicy::Off {
        return Ok(ms);
    }
    let bad = crt_bad_lanes(&plan, cs, &ms, run_kind)?;
    if bad.is_empty() {
        return Ok(ms);
    }
    let quarantine = config.quarantine();
    for _ in &bad {
        quarantine.record_violation(run_kind);
    }
    // One verified retry of just the bad lanes on the next-weaker
    // backend (falling back to the portable CIOS scan when the chain
    // runs out or the weaker backend cannot serve these parameters).
    let fallback = run_kind
        .weaker()
        .filter(|k| k.ensure_supports(pparams).is_ok() && k.ensure_supports(qparams).is_ok())
        .unwrap_or(EngineKind::Cios);
    quarantine.record_fallback_retry();
    let bad_cs: Vec<Ubig> = bad.iter().map(|&k| cs[k].clone()).collect();
    let retried = crt_halves(&plan, &bad_cs, fallback)?;
    let still_bad = crt_bad_lanes(&plan, &bad_cs, &retried, fallback)?;
    if let Some(&j) = still_bad.first() {
        return Err(MmmError::IntegrityViolation { lane: bad[j] });
    }
    for (&k, fixed) in bad.iter().zip(retried) {
        ms[k] = fixed;
        quarantine.record_correction();
    }
    Ok(ms)
}

/// Computes the CRT plaintexts on `kind` engines: per shard, two
/// half-width shared-exponent batch scans (mod `p` and mod `q`) and a
/// per-lane Garner recombination. The engines come from
/// [`pool::run_sharded`] (verified, hardened per the config), and the
/// corruption-injection hooks for the pooled-param and CRT-half fault
/// models are applied here — inert outside tests.
fn crt_halves(plan: &CrtPlan<'_>, cs: &[Ubig], kind: EngineKind) -> Result<Vec<Ubig>, MmmError> {
    // Fan out over (shard × prime half): the mod-p and mod-q runs of
    // a shard are independent, so they parallelize too — a queue of
    // ≤ 64 ciphertexts still fills two cores instead of one.
    let jobs = pool::shard_ranges(plan.config, cs.len())
        .flat_map(|lanes| {
            [
                (plan.pparams, (lanes.clone(), &plan.key.dp)),
                (plan.qparams, (lanes, &plan.key.dq)),
            ]
        })
        .collect();
    let faults = plan.config.faults();
    let halves = pool::run_sharded(kind, plan.config, jobs, |engine, (lanes, d)| {
        let mut me = BatchModExp::new(engine);
        let mut residues: Vec<Ubig> = cs[lanes].iter().map(|c| c.rem(me.params().n())).collect();
        faults.corrupt_param_residue(&mut residues, me.params().n());
        // Under MMM_HARDENED the half-width scans run the
        // constant-time schedule (full-table sweeps, no skips,
        // canonicalizing engines) — see DESIGN.md §12.
        let mut half = me.try_modexp(&residues, ScalarSet::Shared(d), plan.config.window())?;
        faults.corrupt_crt_half(&mut half, me.params().n());
        Ok(half)
    })?;
    Ok(halves
        .chunks(2)
        .flat_map(|pair| {
            let (mps, mqs) = (&pair[0], &pair[1]);
            mps.iter()
                .zip(mqs)
                .map(|(mp, mq)| crate::cipher::garner(plan.key, mp, mq))
        })
        .collect())
}

/// The verify-before-release pass: re-encrypts every candidate
/// plaintext on `kind` engines and returns the indices (into `ms`)
/// whose `m^e mod N` does not reproduce the submitted ciphertext. The
/// verification pass itself runs with checking `Off` and the inert
/// fault plan — it must neither recurse into another verify pass nor
/// consume a test's armed injections.
fn crt_bad_lanes(
    plan: &CrtPlan<'_>,
    cs: &[Ubig],
    ms: &[Ubig],
    kind: EngineKind,
) -> Result<Vec<usize>, MmmError> {
    let nparams = pool::try_global()?.params_for(&plan.key.n);
    let vconfig = plan
        .config
        .clone()
        .with_backend(kind)
        .with_verify(VerifyPolicy::Off)
        .with_faults(inert_plan());
    // A corrupted lane can in principle exceed N; substitute zero so
    // the probe vector stays a valid input (such lanes are flagged
    // unconditionally below, whatever the probe returns).
    let n = &plan.key.n;
    let inputs: Cow<[Ubig]> = if ms.iter().all(|m| m < n) {
        Cow::Borrowed(ms)
    } else {
        let zeroed = |m: &Ubig| if m < n { m.clone() } else { Ubig::zero() };
        Cow::Owned(ms.iter().map(zeroed).collect())
    };
    let reenc = try_modexp_many_shared(&nparams, &inputs, &plan.key.e, &vconfig)?;
    Ok((0..ms.len())
        .filter(|&k| ms[k] >= *n || reenc[k] != cs[k])
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::KeyedSession;
    use crate::signing::{sign, verify};
    use mmm_core::traits::SoftwareEngine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(bits: usize, seed: u64) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(&mut rng, bits, 12)
    }

    /// A session on `kind` with the default (64-lane) shard width.
    fn session(kp: &RsaKeyPair, kind: EngineKind) -> KeyedSession {
        KeyedSession::new(kp.clone(), EngineConfig::default().with_backend(kind)).unwrap()
    }

    #[test]
    fn batch_signatures_match_scalar_signing() {
        let kp = keypair(48, 70);
        let params = MontgomeryParams::hardware_safe(&kp.n);
        let mut rng = StdRng::seed_from_u64(71);
        let ms: Vec<Ubig> = (0..9)
            .map(|_| Ubig::random_below(&mut rng, &kp.n))
            .collect();
        let sigs = session(&kp, EngineKind::Cios).sign(&ms).unwrap();
        for (k, (m, s)) in ms.iter().zip(&sigs).enumerate() {
            let scalar = sign(SoftwareEngine::new(params.clone()), &kp, m);
            assert_eq!(*s, scalar, "lane {k}");
        }
    }

    #[test]
    fn batch_verify_accepts_good_and_rejects_tampered() {
        let kp = keypair(40, 72);
        let mut rng = StdRng::seed_from_u64(73);
        let ms: Vec<Ubig> = (0..6)
            .map(|_| Ubig::random_below(&mut rng, &kp.n))
            .collect();
        let s = session(&kp, EngineKind::Cios);
        let mut sigs = s.sign(&ms).unwrap();
        assert!(s.verify(&ms, &sigs).unwrap().into_iter().all(|ok| ok));
        // Tamper with one lane only.
        sigs[3] = sigs[3].modadd(&Ubig::one(), &kp.n);
        let verdicts = s.verify(&ms, &sigs).unwrap();
        for (k, ok) in verdicts.into_iter().enumerate() {
            assert_eq!(ok, k != 3, "lane {k}");
        }
    }

    #[test]
    fn encrypt_then_batch_decrypt_roundtrip_beyond_64_lanes() {
        let kp = keypair(32, 74);
        let mut rng = StdRng::seed_from_u64(75);
        let ms: Vec<Ubig> = (0..70)
            .map(|_| Ubig::random_below(&mut rng, &kp.n))
            .collect();
        let cs: Vec<Ubig> = ms.iter().map(|m| m.modpow(&kp.e, &kp.n)).collect();
        assert_eq!(session(&kp, EngineKind::Cios).decrypt(&cs).unwrap(), ms);
    }

    #[test]
    fn crt_batch_matches_scalar_crt_and_plain_decrypt() {
        use crate::cipher::decrypt_crt;
        let kp = keypair(64, 77);
        let mut rng = StdRng::seed_from_u64(78);
        let ms: Vec<Ubig> = (0..9)
            .map(|_| Ubig::random_below(&mut rng, &kp.n))
            .collect();
        let cs: Vec<Ubig> = ms.iter().map(|m| m.modpow(&kp.e, &kp.n)).collect();
        let got = session(&kp, EngineKind::Cios).decrypt_crt(&cs).unwrap();
        assert_eq!(got, ms, "roundtrip");
        for (k, c) in cs.iter().enumerate() {
            assert_eq!(got[k], decrypt_crt(&kp, c), "lane {k} vs scalar CRT");
        }
    }

    #[test]
    fn crt_batch_shards_beyond_64_lanes() {
        let kp = keypair(32, 79);
        let mut rng = StdRng::seed_from_u64(80);
        let ms: Vec<Ubig> = (0..70)
            .map(|_| Ubig::random_below(&mut rng, &kp.n))
            .collect();
        let cs: Vec<Ubig> = ms.iter().map(|m| m.modpow(&kp.e, &kp.n)).collect();
        let got = session(&kp, EngineKind::Cios).decrypt_crt(&cs).unwrap();
        assert_eq!(got, ms);
    }

    #[test]
    fn crt_batch_edge_ciphertexts() {
        let kp = keypair(32, 81);
        // 0, 1, and multiples of p/q (lanes where one CRT half is 0).
        let cs = vec![
            Ubig::zero(),
            Ubig::one(),
            kp.p.clone(),
            kp.q.clone(),
            (&kp.n - &Ubig::one()),
        ];
        let want: Vec<Ubig> = cs.iter().map(|c| c.modpow(&kp.d, &kp.n)).collect();
        let got = session(&kp, EngineKind::Cios).decrypt_crt(&cs).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn crt_batch_rejects_unreduced_ciphertext() {
        let kp = keypair(32, 82);
        let cs = [Ubig::one(), kp.n.clone()];
        assert_eq!(
            session(&kp, EngineKind::Cios).decrypt_crt(&cs).unwrap_err(),
            MmmError::OperandOutOfRange {
                lane: 1,
                bound: OperandBound::N
            }
        );
    }

    #[test]
    fn every_backend_agrees_on_all_batch_entry_points() {
        let kp = keypair(48, 83);
        let mut rng = StdRng::seed_from_u64(84);
        let ms: Vec<Ubig> = (0..7)
            .map(|_| Ubig::random_below(&mut rng, &kp.n))
            .collect();
        let cs: Vec<Ubig> = ms.iter().map(|m| m.modpow(&kp.e, &kp.n)).collect();
        let sigs = session(&kp, EngineKind::Cios).sign(&ms).unwrap();
        for kind in EngineKind::ALL {
            let s = session(&kp, kind);
            assert_eq!(s.sign(&ms).unwrap(), sigs, "{}", kind.name());
            assert!(
                s.verify(&ms, &sigs).unwrap().into_iter().all(|ok| ok),
                "{}",
                kind.name()
            );
            assert_eq!(s.decrypt_crt(&cs).unwrap(), ms, "{}", kind.name());
        }
    }

    #[test]
    fn scalar_verify_accepts_batch_signatures() {
        let kp = keypair(40, 76);
        let params = MontgomeryParams::hardware_safe(&kp.n);
        let ms = vec![Ubig::from(123456u64).rem(&kp.n), Ubig::from(42u64)];
        let sigs = session(&kp, EngineKind::Cios).sign(&ms).unwrap();
        for (m, s) in ms.iter().zip(&sigs) {
            assert!(verify(SoftwareEngine::new(params.clone()), &kp, m, s));
        }
    }
}
