//! The ECC workload: one P-256 `CurveSession`, driven by one caller in
//! a closed loop of 128-request calls (two 64-lane shards), three ECDSA
//! verify calls to one ECDH call in a seeded order.

use crate::util::{ms, process_cpu};
use crate::{derive_rng, Tally};
use mmm_bigint::Ubig;
use mmm_core::batch::MAX_LANES;
use mmm_core::montgomery::MontgomeryParams;
use mmm_core::{
    CiosMont, EngineConfig, EngineKind, HardeningMode, MmmError, VerifyPolicy, WindowPolicy,
};
use mmm_ecc::curves::{p256, CurveSpec};
use mmm_ecc::{Curve, CurveSession, EcdhRequest, EcdsaRequest, FieldCtx};
use rand::Rng;
use std::time::{Duration, Instant};

/// Requests per call: two full 64-lane shards.
pub const CALL_REQUESTS: usize = 128;
/// The percentile of call latency reported as `tail_ms`.
pub const TAIL_PCT: f64 = 90.0;
/// One signature in this many is tampered and must verify `false`.
const TAMPER_ONE_IN: usize = 8;
/// Distinct signers behind the signature pool.
const SIGNERS: usize = 16;
/// Valid signatures in the pool verify calls draw from.
const SIGNATURES: usize = 256;
/// ECDH key pairs; each ECDH call uses 64 mirrored pairs.
const PAIRS: usize = 128;
/// Distinct calls the closed loop cycles through.
const CALL_CYCLE: usize = 64;
/// ECDH pairs cross-checked against the solo `Curve` oracle.
const ORACLE_PAIRS: usize = 2;

pub fn config() -> EngineConfig {
    EngineConfig::default()
        .with_backend(EngineKind::Cios)
        .with_window(WindowPolicy::Auto)
        .expect("auto window is valid")
        .with_shard_lanes(MAX_LANES)
        .expect("full shards are valid")
        .with_verify(VerifyPolicy::Off)
        .with_hardening(HardeningMode::Off)
}

/// One call of the closed loop.
pub enum Call {
    /// ECDSA verifications and the verdict each must return.
    Verify {
        reqs: Vec<EcdsaRequest>,
        valid: Vec<bool>,
    },
    /// ECDH derivations in mirrored pairs: requests `2i` and `2i + 1`
    /// must produce the same secret.
    Ecdh { reqs: Vec<EcdhRequest> },
}

pub struct Fixture {
    pub session: CurveSession,
    pub calls: Vec<Call>,
    /// Private scalars and public points of the ECDH pairs, kept for the
    /// oracle cross-check.
    pairs: Vec<(Ubig, (Ubig, Ubig))>,
}

fn base_mul(session: &CurveSession, ks: &[Ubig]) -> Result<Vec<(Ubig, Ubig)>, MmmError> {
    session
        .scalar_mul_base(ks)?
        .into_iter()
        .map(|p| p.ok_or(MmmError::ScalarOutOfRange { lane: 0 }))
        .collect()
}

fn nonzero_below(rng: &mut impl Rng, n: &Ubig) -> Ubig {
    loop {
        let k = Ubig::random_below(rng, n);
        if !k.is_zero() {
            return k;
        }
    }
}

impl Fixture {
    /// Set-up: session build, seeded signer keys and signatures, ECDH
    /// key pairs, and the cycle of calls with their tamper positions.
    pub fn build(seed: u64) -> Result<Fixture, MmmError> {
        let spec = p256();
        let session = CurveSession::new(spec.clone(), config())?;
        let n = &spec.order;
        let mut rng = derive_rng(seed, 11);
        let ds: Vec<Ubig> = (0..SIGNERS).map(|_| nonzero_below(&mut rng, n)).collect();
        let ks: Vec<Ubig> = (0..SIGNATURES)
            .map(|_| nonzero_below(&mut rng, n))
            .collect();
        let pair_ds: Vec<Ubig> = (0..PAIRS).map(|_| nonzero_below(&mut rng, n)).collect();
        let all: Vec<Ubig> = ds.iter().chain(&ks).chain(&pair_ds).cloned().collect();
        let points = base_mul(&session, &all)?;
        let (qs, rest) = points.split_at(SIGNERS);
        let (rs, pair_pts) = rest.split_at(SIGNATURES);

        // Textbook ECDSA signing: r = x([k]G) mod n, s = k⁻¹(z + r·d).
        let mut sigs = Vec::with_capacity(SIGNATURES);
        for (i, (k, (rx, _))) in ks.iter().zip(rs).enumerate() {
            let signer = i % SIGNERS;
            let z = Ubig::random_below(&mut rng, n);
            let r = rx.rem(n);
            let kinv = k
                .modinv(n)
                .expect("k is a nonzero residue of a prime order");
            let s = kinv.modmul(&z.modadd(&r.modmul(&ds[signer], n), n), n);
            if r.is_zero() || s.is_zero() {
                continue;
            }
            let (qx, qy) = qs[signer].clone();
            sigs.push(EcdsaRequest { z, r, s, qx, qy });
        }
        let pairs: Vec<(Ubig, (Ubig, Ubig))> =
            pair_ds.into_iter().zip(pair_pts.iter().cloned()).collect();

        let mut calls = Vec::with_capacity(CALL_CYCLE);
        for _ in 0..CALL_CYCLE / 4 {
            // Exactly three verify calls and one ECDH call per block of
            // four, the ECDH call's slot drawn from the seed.
            let ecdh_slot = rng.gen_range(0, 4) as usize;
            for slot in 0..4 {
                if slot == ecdh_slot {
                    let mut reqs = Vec::with_capacity(CALL_REQUESTS);
                    for _ in 0..CALL_REQUESTS / 2 {
                        let a = rng.gen_range(0, PAIRS as u64) as usize;
                        let mut b = rng.gen_range(0, PAIRS as u64 - 1) as usize;
                        if b >= a {
                            b += 1;
                        }
                        let (da, _) = &pairs[a];
                        let (db, _) = &pairs[b];
                        reqs.push(EcdhRequest {
                            scalar: da.clone(),
                            qx: pairs[b].1 .0.clone(),
                            qy: pairs[b].1 .1.clone(),
                        });
                        reqs.push(EcdhRequest {
                            scalar: db.clone(),
                            qx: pairs[a].1 .0.clone(),
                            qy: pairs[a].1 .1.clone(),
                        });
                    }
                    calls.push(Call::Ecdh { reqs });
                } else {
                    let mut tampered = vec![false; CALL_REQUESTS];
                    let mut marked = 0;
                    while marked < CALL_REQUESTS / TAMPER_ONE_IN {
                        let i = rng.gen_range(0, CALL_REQUESTS as u64) as usize;
                        if !tampered[i] {
                            tampered[i] = true;
                            marked += 1;
                        }
                    }
                    let mut reqs = Vec::with_capacity(CALL_REQUESTS);
                    for &t in &tampered {
                        let mut req = sigs[rng.gen_range(0, sigs.len() as u64) as usize].clone();
                        if t {
                            req.z = req.z.modadd(&Ubig::one(), n);
                        }
                        reqs.push(req);
                    }
                    let valid = tampered.iter().map(|t| !t).collect();
                    calls.push(Call::Verify { reqs, valid });
                }
            }
        }
        Ok(Fixture {
            session,
            calls,
            pairs,
        })
    }

    /// Cross-checks a generated public key and a few ECDH secrets against
    /// the solo `Curve` oracle (word-serial CIOS engine, double-and-add,
    /// no batching).
    pub fn oracle_check(&self, tally: &mut Tally) -> Result<(), MmmError> {
        let spec: &CurveSpec = self.session.spec();
        let mut f = FieldCtx::new(CiosMont::new(MontgomeryParams::hardware_safe(&spec.p)));
        let curve = Curve::try_new(&mut f, &spec.a, &spec.b)?;
        let reqs: Vec<EcdhRequest> = (0..ORACLE_PAIRS)
            .map(|i| {
                let (d, _) = &self.pairs[i];
                let (qx, qy) = &self.pairs[i + ORACLE_PAIRS].1;
                EcdhRequest {
                    scalar: d.clone(),
                    qx: qx.clone(),
                    qy: qy.clone(),
                }
            })
            .collect();
        // The generated public keys themselves: [d]G from the batch path
        // against the solo double-and-add.
        let g = curve.try_point(&mut f, &spec.gx, &spec.gy)?;
        let (d, public) = &self.pairs[0];
        let solo = curve.scalar_mul(&mut f, d, &g);
        if curve.to_affine(&mut f, &solo).as_ref() != Some(public) {
            tally.wrong(
                "ecc-p256-verify: generated public key differs from the solo Curve oracle"
                    .to_string(),
            );
        }
        let got = self.session.ecdh(&reqs)?;
        for (req, secret) in reqs.iter().zip(got) {
            let q = curve.try_point(&mut f, &req.qx, &req.qy)?;
            let product = curve.scalar_mul(&mut f, &req.scalar, &q);
            let want = curve.to_affine(&mut f, &product).map(|(x, _)| x);
            if want.as_ref() != Some(&secret) {
                tally.wrong(
                    "ecc-p256-verify: ECDH secret differs from the solo Curve oracle".to_string(),
                );
            }
        }
        Ok(())
    }

    /// Runs one call and checks every answer.
    pub fn run_call(&self, call: &Call, tally: &mut Tally) {
        tally.attempted += CALL_REQUESTS as u64;
        match call {
            Call::Verify { reqs, valid } => match self.session.verify_ecdsa(reqs) {
                Ok(verdicts) => {
                    for (i, (v, want)) in verdicts.iter().zip(valid).enumerate() {
                        if v == want {
                            tally.ok += 1;
                        } else {
                            tally.wrong(format!(
                                "ecc-p256-verify: request {i}: verdict {v}, expected {want}"
                            ));
                        }
                    }
                }
                Err(e) => (0..reqs.len()).for_each(|_| tally.error(&e)),
            },
            Call::Ecdh { reqs } => match self.session.ecdh(reqs) {
                Ok(secrets) => {
                    for (i, pair) in secrets.chunks(2).enumerate() {
                        if pair.len() == 2 && pair[0] == pair[1] {
                            tally.ok += 2;
                        } else {
                            tally.wrong(format!(
                                "ecc-p256-verify: ECDH pair {i}: mirrored secrets differ"
                            ));
                        }
                    }
                }
                Err(e) => (0..reqs.len()).for_each(|_| tally.error(&e)),
            },
        }
    }

    /// The closed loop for `secs`: one call after another from one
    /// caller.
    pub fn closed(&self, secs: f64, cursor: &mut usize, tally: &mut Tally) -> Loop {
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        let mut out = Loop::default();
        let (cpu0, ok0) = (process_cpu(), tally.ok);
        let mut prev_end = start;
        while Instant::now() < end {
            let call = &self.calls[*cursor % self.calls.len()];
            *cursor += 1;
            let t0 = Instant::now();
            out.gap_ms.push(ms(t0 - prev_end));
            self.run_call(call, tally);
            let t1 = Instant::now();
            out.call_ms.push(ms(t1 - t0));
            prev_end = t1;
        }
        let ok = (tally.ok - ok0) as f64;
        out.ops_s = ok / (prev_end - start).as_secs_f64();
        out.cpu_ms_per_op = ms(process_cpu() - cpu0) / ok.max(1.0);
        out
    }
}

/// What one closed loop measured.
#[derive(Debug, Default)]
pub struct Loop {
    pub call_ms: Vec<f64>,
    /// Generator time between one call's return and the next call.
    pub gap_ms: Vec<f64>,
    /// Answered requests per second.
    pub ops_s: f64,
    /// Process CPU time per answered request.
    pub cpu_ms_per_op: f64,
}
