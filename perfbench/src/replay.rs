//! The traced replay: each layer's public functions called and timed
//! from the benchmark on captured shards and generated operands, at the
//! shapes the workloads serve. Nothing here changes program code; spans
//! inside the serving workers are out of reach of this replay.

use crate::counting::Counting;
use crate::ecc_load::{self, Call};
use crate::util::{median, median_us, ms, us, Metrics};
use crate::{derive_rng, Tally};
use mmm_bigint::transpose::{lanes_to_limbs_into, limbs_to_lanes_into};
use mmm_bigint::Ubig;
use mmm_core::batch::MAX_LANES;
use mmm_core::cost::mmm_cycles;
use mmm_core::expo_batch::{try_modexp_many_shared, BatchExpoStats};
use mmm_core::montgomery::MontgomeryParams;
use mmm_core::pool::{self, EnginePool};
use mmm_core::verify::faults::inert_plan;
use mmm_core::{
    BatchModExp, BatchMontMul, EngineConfig, EngineKind, HardeningMode, MmmError, VerifiedEngine,
    VerifyPolicy, WindowPolicy,
};
use mmm_ecc::{BatchCurve, BatchFieldCtx, Point, PointLanes};
use mmm_rsa::blinding::BlindingState;
use mmm_rsa::cipher::garner;
use mmm_rsa::{KeyedSession, RsaKeyPair};
use std::time::Instant;

/// Timed samples per CRT-path measurement.
const CRT_SAMPLES: usize = 15;
/// Interleaved A/B pairs per tax ratio.
const TAX_PAIRS: usize = 15;
/// Timed calls per kernel, conversion and checkout measurement.
const CALL_SAMPLES: usize = 301;
/// Timed batched scalar multiplications.
const SCALAR_MUL_SAMPLES: usize = 5;
/// Replayed serving calls per ECC call type.
const ECC_CALL_SAMPLES: usize = 5;

/// The first `lanes` captured `(plaintext, ciphertext)` pairs, cycling
/// when fewer were captured.
pub fn shard(captured: &[(Ubig, Ubig)], lanes: usize) -> (Vec<Ubig>, Vec<Ubig>) {
    (0..lanes)
        .map(|i| captured[i % captured.len()].clone())
        .unzip()
}

/// One CRT half exactly as the decrypt path runs it: a pooled engine of
/// `kind`, the config's hardening, behind the policy-gated self-check.
fn half_scan<E: BatchMontMul>(
    engine: E,
    config: &EngineConfig,
    residues: &[Ubig],
    d: &Ubig,
) -> (Vec<Ubig>, BatchModExp<VerifiedEngine<E>>) {
    let mut me = BatchModExp::new(VerifiedEngine::new(
        engine,
        config.backend(),
        config.verify_context(),
    ));
    let out = match config.window() {
        WindowPolicy::Auto => me.modexp_batch_shared_auto(residues, d),
        WindowPolicy::Fixed(w) => me.modexp_batch_shared_windowed(residues, d, w),
    };
    (out, me)
}

fn pooled(params: &MontgomeryParams, config: &EngineConfig) -> pool::PooledEngine {
    let mut e = pool::global().checkout_kind(params, config.backend());
    e.set_hardening(config.hardening());
    e
}

/// Median wall time of `session.decrypt_crt` on the shard, checking
/// every answer.
pub fn crt_ms(
    session: &KeyedSession,
    plain: &[Ubig],
    cs: &[Ubig],
    samples: usize,
    tally: &mut Tally,
) -> Result<f64, MmmError> {
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        let got = session.decrypt_crt(cs)?;
        times.push(ms(t.elapsed()));
        if got != plain {
            tally.wrong("replay: decrypt_crt returned a wrong plaintext".to_string());
        }
    }
    Ok(median(&times))
}

/// The `crt.*` breakdown of one shard shape under `config`: the public
/// functions `decrypt_crt_core` calls, timed one by one, against a
/// replayed whole `KeyedSession::decrypt_crt` of the same shard.
///
/// The decrypt path runs the `p` and `q` halves concurrently, so the
/// accounting charges them as one span: both halves (residue and scan
/// each) run on two threads exactly as the program fans them out. The
/// per-half metrics time the `p` half alone.
fn crt_breakdown(
    key: &RsaKeyPair,
    config: &EngineConfig,
    plain: &[Ubig],
    cs: &[Ubig],
    suffix: &str,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), MmmError> {
    let session = KeyedSession::new(key.clone(), config.clone())?;
    let pool = pool::global();
    let (pparams, qparams, nparams) = (
        pool.params_for(&key.p),
        pool.params_for(&key.q),
        pool.params_for(&key.n),
    );
    let vconfig = config
        .clone()
        .with_verify(VerifyPolicy::Off)
        .with_faults(inert_plan());
    let blinding = config
        .hardening()
        .is_hardened()
        .then(|| BlindingState::new(key.n.clone(), key.e.clone()));
    let [mut total, mut residue, mut scan, mut halves, mut recombine, mut reencrypt, mut blind] =
        [(); 7].map(|_| Vec::with_capacity(CRT_SAMPLES));
    for _ in 0..CRT_SAMPLES {
        let t0 = Instant::now();
        let _ = session.decrypt_crt(cs)?;
        total.push(ms(t0.elapsed()));

        // Blinding (hardened sessions only): masks and exponents.
        let t0 = Instant::now();
        let (bcs, bkey, ticket) = match &blinding {
            Some(state) => {
                let ticket = state.ticket();
                let mut bkey = key.clone();
                bkey.dp = ticket.blinded_exponent(&key.dp, &(&key.p - &Ubig::one()), ticket.kp);
                bkey.dq = ticket.blinded_exponent(&key.dq, &(&key.q - &Ubig::one()), ticket.kq);
                (ticket.blind(cs, &key.n), bkey, Some(ticket))
            }
            None => (cs.to_vec(), key.clone(), None),
        };
        let blind_time = t0.elapsed();

        let t0 = Instant::now();
        let rp: Vec<Ubig> = bcs.iter().map(|c| c.rem(&key.p)).collect();
        residue.push(us(t0.elapsed()));
        let t0 = Instant::now();
        let _ = half_scan(pooled(&pparams, config), config, &rp, &bkey.dp);
        scan.push(ms(t0.elapsed()));

        let t0 = Instant::now();
        let [mp, mq] = std::thread::scope(|s| {
            [(&pparams, &bkey.dp), (&qparams, &bkey.dq)]
                .map(|(params, d)| {
                    let bcs = &bcs;
                    s.spawn(move || {
                        let r: Vec<Ubig> = bcs.iter().map(|c| c.rem(params.n())).collect();
                        half_scan(pooled(params, config), config, &r, d).0
                    })
                })
                .map(|h| h.join().expect("a CRT half panicked"))
        });
        halves.push(ms(t0.elapsed()));

        let t0 = Instant::now();
        let mut m: Vec<Ubig> = mp
            .iter()
            .zip(&mq)
            .map(|(a, b)| garner(&bkey, a, b))
            .collect();
        recombine.push(us(t0.elapsed()));
        let t0 = Instant::now();
        let reenc = try_modexp_many_shared(&nparams, &m, &key.e, &vconfig)?;
        reencrypt.push(ms(t0.elapsed()));
        if reenc != bcs {
            tally.wrong("replay: re-encryption does not reproduce the ciphertexts".to_string());
        }
        let t0 = Instant::now();
        if let Some(ticket) = &ticket {
            ticket.unblind(&mut m, &key.n);
        }
        blind.push(us(blind_time + t0.elapsed()));
        if m != plain {
            tally.wrong("replay: CRT layers recombined a wrong plaintext".to_string());
        }
    }
    let accounted =
        median(&blind) / 1e3 + median(&halves) + median(&recombine) / 1e3 + median(&reencrypt);
    out.put(format!("crt.residue{suffix}_us"), median(&residue), "us");
    out.put(format!("crt.half_scan{suffix}_ms"), median(&scan), "ms");
    out.put(format!("crt.garner{suffix}_us"), median(&recombine), "us");
    out.put(
        format!("crt.reencrypt{suffix}_ms"),
        median(&reencrypt),
        "ms",
    );
    if config.hardening().is_hardened() {
        out.put(format!("crt.blind{suffix}_us"), median(&blind), "us");
    }
    out.put(
        format!("crt.accounted{suffix}_frac"),
        accounted / median(&total),
        "frac",
    );
    Ok(())
}

/// Median of per-pair ratios `b/a` from interleaved samples, the order
/// within each pair alternating so drift hits both sides.
fn interleaved_ratio(
    a: &KeyedSession,
    b: &KeyedSession,
    plain: &[Ubig],
    cs: &[Ubig],
    tally: &mut Tally,
) -> Result<f64, MmmError> {
    let mut ratios = Vec::with_capacity(TAX_PAIRS);
    for i in 0..TAX_PAIRS {
        let (ta, tb) = if i % 2 == 0 {
            let ta = crt_ms(a, plain, cs, 1, tally)?;
            (ta, crt_ms(b, plain, cs, 1, tally)?)
        } else {
            let tb = crt_ms(b, plain, cs, 1, tally)?;
            (crt_ms(a, plain, cs, 1, tally)?, tb)
        };
        ratios.push(tb / ta);
    }
    Ok(median(&ratios))
}

/// Exact scan counts of one 64-lane CRT half (the `p` half) under the
/// workload's hardening, read from the exponentiator's own counters.
pub fn scan_counts(
    key: &RsaKeyPair,
    captured: &[(Ubig, Ubig)],
    hardening: HardeningMode,
    counts: &mut Metrics,
) {
    let config = crate::rsa_load::config(hardening);
    let pparams = pool::global().params_for(&key.p);
    let (_, cs) = shard(captured, MAX_LANES);
    let residues: Vec<Ubig> = cs.iter().map(|c| c.rem(&key.p)).collect();
    let (_, me) = half_scan(pooled(&pparams, &config), &config, &residues, &key.dp);
    put_scan_counts(&me.stats(), pparams.l(), counts);
}

fn put_scan_counts(stats: &BatchExpoStats, l: usize, counts: &mut Metrics) {
    counts.put("scan.batch_muls", stats.total_batch_muls as f64, "count");
    counts.put("scan.table_muls", stats.table_muls as f64, "count");
    counts.put(
        "scan.skipped_muls",
        stats.skipped_multiplications as f64,
        "count",
    );
    counts.put(
        "scan.model_cycles",
        (stats.total_batch_muls * mmm_cycles(l)) as f64,
        "cycles",
    );
}

/// The `rsa`, `crt` and `scan` layers on one key and its captured
/// ciphertexts. `hardening` is the workload's scan mode.
pub fn rsa_layers(
    key: &RsaKeyPair,
    captured: &[(Ubig, Ubig)],
    hardening: HardeningMode,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), MmmError> {
    use crate::rsa_load::config;
    let (plain64, cs64) = shard(captured, MAX_LANES);
    let (plain1, cs1) = shard(captured, 1);
    let hot = config(HardeningMode::Off);
    let hard = config(HardeningMode::Hardened);
    let off = hot.clone().with_verify(VerifyPolicy::Off);
    let hot_s = KeyedSession::new(key.clone(), hot.clone())?;
    let hard_s = KeyedSession::new(key.clone(), hard.clone())?;
    let off_s = KeyedSession::new(key.clone(), off)?;

    out.put(
        "rsa.crt_full_shard_ms",
        crt_ms(&hot_s, &plain64, &cs64, CRT_SAMPLES, tally)?,
        "ms",
    );
    out.put(
        "rsa.crt_one_lane_ms",
        crt_ms(&hard_s, &plain1, &cs1, CRT_SAMPLES, tally)?,
        "ms",
    );
    out.put(
        "rsa.verify_tax",
        interleaved_ratio(&off_s, &hot_s, &plain64, &cs64, tally)?,
        "ratio",
    );
    out.put(
        "rsa.hardened_tax",
        interleaved_ratio(&hot_s, &hard_s, &plain64, &cs64, tally)?,
        "ratio",
    );

    crt_breakdown(key, &hot, &plain64, &cs64, "", out, tally)?;
    crt_breakdown(key, &hard, &plain1, &cs1, "_1lane", out, tally)?;

    // Scan: the p half through the counting wrapper, checked against the
    // bare engine and the exponentiator's own counters.
    let config = config(hardening);
    let pparams = pool::global().params_for(&key.p);
    let residues: Vec<Ubig> = cs64.iter().map(|c| c.rem(&key.p)).collect();
    let (bare, bare_me) = half_scan(pooled(&pparams, &config), &config, &residues, &key.dp);
    let mut frac = Vec::new();
    let mut per_mul = Vec::new();
    for _ in 0..CRT_SAMPLES {
        let t0 = Instant::now();
        let (got, me) = half_scan(
            Counting::new(pooled(&pparams, &config)),
            &config,
            &residues,
            &key.dp,
        );
        let wall = t0.elapsed();
        let c = me.engine().inner();
        assert_eq!(got, bare, "the counting wrapper changed a scan result");
        assert_eq!(
            me.stats(),
            bare_me.stats(),
            "the counting wrapper changed the scan schedule"
        );
        assert_eq!(
            c.calls,
            me.stats().total_batch_muls,
            "every batch multiplication passes the wrapper"
        );
        frac.push(c.busy.as_secs_f64() / wall.as_secs_f64());
        per_mul.push(c.busy.as_secs_f64() * 1e9 / c.calls as f64);
    }
    put_scan_counts(&bare_me.stats(), pparams.l(), out);
    out.put("scan.kernel_frac", median(&frac), "frac");
    out.put("scan.ns_per_batch_mul", median(&per_mul), "ns");
    Ok(())
}

/// Seeded operands below `params.n()` for `lanes` lanes.
fn operands(params: &MontgomeryParams, lanes: usize, seed: u64, tag: u64) -> Vec<Ubig> {
    let mut rng = derive_rng(seed, tag);
    (0..lanes)
        .map(|_| Ubig::random_below(&mut rng, params.n()))
        .collect()
}

/// `kernel`, `convert` and `pool` timed calls at the serving widths:
/// l=257 (P-256), l=513 (a CRT half), l=1025 (the public modulus).
pub fn engine_layers(key: &RsaKeyPair, seed: u64, out: &mut Metrics) {
    let pool = pool::global();
    // Fixed widths, so names and costs compare across seeds: a 1024-bit
    // modulus is served at l=1025 or, for some keys, l=1024.
    let widths = [
        MontgomeryParams::new(&mmm_ecc::curves::p256().p, 257),
        MontgomeryParams::new(&key.p, 513),
        MontgomeryParams::new(&key.n, 1025),
    ];
    for kind in [EngineKind::Cios, EngineKind::Cios52] {
        for (i, params) in widths.iter().enumerate() {
            let mut e = pool.checkout_kind(params, kind);
            let xs = operands(params, MAX_LANES, seed, 20 + i as u64);
            let ys = operands(params, MAX_LANES, seed, 30 + i as u64);
            let mut o = Vec::new();
            let t = median_us(CALL_SAMPLES, || e.mont_mul_batch_into(&xs, &ys, &mut o));
            out.put(
                format!("kernel.{}.l{}_us", kind.name(), params.l()),
                t,
                "us",
            );
            if i == 1 {
                let t = median_us(CALL_SAMPLES, || {
                    e.mont_mul_batch_into(&xs[..1], &ys[..1], &mut o)
                });
                out.put(
                    format!("kernel.{}.l{}_1lane_us", kind.name(), params.l()),
                    t,
                    "us",
                );
            }
        }
    }
    for (i, params) in widths[..2].iter().enumerate() {
        let limbs = (params.l() + 1).div_ceil(64);
        let xs = operands(params, MAX_LANES, seed, 40 + i as u64);
        let mut soa = Vec::new();
        let mut lanes = Vec::new();
        let load = median_us(CALL_SAMPLES, || {
            lanes_to_limbs_into(&xs, limbs, MAX_LANES, &mut soa)
        });
        let store = median_us(CALL_SAMPLES, || {
            limbs_to_lanes_into(&soa, limbs, MAX_LANES, MAX_LANES, &mut lanes)
        });
        assert_eq!(lanes, xs, "limb layout round trip");
        out.put(format!("convert.load_us.l{}", params.l()), load, "us");
        out.put(format!("convert.store_us.l{}", params.l()), store, "us");
    }
    // A warm checkout (hit) on the global pool, and a miss on a private
    // one-entry pool alternating two moduli, so every call rebuilds the
    // parameters and the engine.
    let pparams = &widths[1];
    let checkout = median_us(CALL_SAMPLES, || {
        drop(pool.checkout_kind(pparams, EngineKind::Cios))
    });
    let local = EnginePool::with_capacity(1);
    let moduli = [key.p.clone(), key.q.clone()];
    let mut i = 0;
    let miss = median_us(41, || {
        let params = local.params_for(&moduli[i % 2]);
        drop(local.checkout_kind(&params, EngineKind::Cios));
        i += 1;
    });
    assert_eq!(
        local.stats().key_misses,
        i as u64,
        "every probe call misses"
    );
    out.put("pool.checkout_us", checkout, "us");
    out.put("pool.miss_us", miss, "us");
}

/// Engine calls of one 64-lane batched scalar multiplication on the
/// workload's curve, counted by the wrapper (the field layer has no
/// counter of its own). Exact for a given seed.
pub fn field_muls_per_scalar_mul(fx: &ecc_load::Fixture, seed: u64) -> Result<f64, MmmError> {
    let (mut f, curve, base, ks) = curve_setup(fx, seed)?;
    let _ = curve.scalar_mul(&mut f, &ks, &base, None);
    Ok(f.engine().calls as f64)
}

type CurveBench = (
    BatchFieldCtx<Counting<pool::PooledEngine>>,
    BatchCurve,
    PointLanes,
    Vec<Ubig>,
);

fn curve_setup(fx: &ecc_load::Fixture, seed: u64) -> Result<CurveBench, MmmError> {
    let spec = fx.session.spec();
    let params = pool::global().params_for(&spec.p);
    let mut f = BatchFieldCtx::new(Counting::new(
        pool::global().checkout_kind(&params, fx.session.backend()),
    ));
    let curve = BatchCurve::try_new(&mut f, &spec.a, &spec.b)?;
    let g = f.to_mont(&[spec.gx.clone(), spec.gy.clone(), Ubig::one()]);
    let base = PointLanes::splat(
        &Point {
            x: g[0].clone(),
            y: g[1].clone(),
            z: g[2].clone(),
        },
        MAX_LANES,
    );
    let mut rng = derive_rng(seed, 50);
    let ks = (0..MAX_LANES)
        .map(|_| Ubig::random_below(&mut rng, &spec.order))
        .collect();
    f.engine_mut().reset();
    Ok((f, curve, base, ks))
}

/// The `ecc` layers: replayed serving calls, then the curve and field
/// operations at 64 lanes through the counting wrapper.
pub fn ecc_layers(
    fx: &ecc_load::Fixture,
    seed: u64,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), MmmError> {
    let verify = fx
        .calls
        .iter()
        .find(|c| matches!(c, Call::Verify { .. }))
        .expect("the cycle has verify calls");
    let ecdh = fx
        .calls
        .iter()
        .find(|c| matches!(c, Call::Ecdh { .. }))
        .expect("the cycle has ECDH calls");
    let before = pool::global().stats();
    let mut calls = 0;
    for (name, call) in [("ecc.verify_call_ms", verify), ("ecc.ecdh_call_ms", ecdh)] {
        let mut times = Vec::new();
        for _ in 0..ECC_CALL_SAMPLES {
            let t = Instant::now();
            let mut call_tally = Tally::default();
            fx.run_call(call, &mut call_tally);
            times.push(ms(t.elapsed()));
            tally.absorb_wrong(call_tally);
            calls += 1;
        }
        out.put(name, median(&times), "ms");
    }
    let after = pool::global().stats();
    let checkouts =
        (after.engine_reuses + after.engine_builds) - (before.engine_reuses + before.engine_builds);
    out.put(
        "ecc.shards_per_call",
        checkouts as f64 / calls as f64,
        "count",
    );

    let (mut f, curve, base, ks) = curve_setup(fx, seed)?;
    let spec = fx.session.spec();
    let mut bare =
        BatchFieldCtx::new(pool::global().checkout_kind(f.params(), fx.session.backend()));
    let bare_curve = BatchCurve::try_new(&mut bare, &spec.a, &spec.b)?;
    let want = bare_curve.scalar_mul(&mut bare, &ks, &base, None);
    let mut times = Vec::new();
    let mut frac = Vec::new();
    let mut counts = Vec::new();
    let mut acc = base.clone();
    for _ in 0..SCALAR_MUL_SAMPLES {
        f.engine_mut().reset();
        let t = Instant::now();
        acc = curve.scalar_mul(&mut f, &ks, &base, None);
        let wall = t.elapsed();
        assert_eq!(
            acc, want,
            "the counting wrapper changed a scalar multiplication"
        );
        times.push(ms(wall));
        frac.push(f.engine().busy.as_secs_f64() / wall.as_secs_f64());
        counts.push(f.engine().calls);
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "field multiplication count repeats"
    );
    out.put("ecc.curve.scalar_mul_ms", median(&times), "ms");
    out.put(
        "ecc.curve.double_us",
        median_us(CALL_SAMPLES / 10, || drop(curve.double(&mut f, &acc))),
        "us",
    );
    out.put(
        "ecc.curve.add_us",
        median_us(CALL_SAMPLES / 10, || drop(curve.add(&mut f, &acc, &base))),
        "us",
    );
    out.put(
        "ecc.curve.to_affine_us",
        median_us(CALL_SAMPLES / 10, || drop(curve.to_affine(&mut f, &acc))),
        "us",
    );
    out.put(
        "ecc.curve.field_muls_per_scalar_mul",
        counts[0] as f64,
        "count",
    );
    out.put("ecc.curve.kernel_frac", median(&frac), "frac");

    let (x, y, z) = (acc.x.clone(), acc.y.clone(), acc.z.clone());
    let plain: Vec<Ubig> = ks.iter().map(|k| k.rem(&spec.p)).collect();
    out.put(
        "ecc.field.mul_us",
        median_us(CALL_SAMPLES, || drop(f.mul(&x, &y))),
        "us",
    );
    out.put(
        "ecc.field.add_us",
        median_us(CALL_SAMPLES, || drop(f.add(&x, &y))),
        "us",
    );
    out.put(
        "ecc.field.sub_us",
        median_us(CALL_SAMPLES, || drop(f.sub(&x, &y))),
        "us",
    );
    out.put(
        "ecc.field.inv_us",
        median_us(CALL_SAMPLES / 10, || drop(f.inv(&z))),
        "us",
    );
    out.put(
        "ecc.field.to_mont_us",
        median_us(CALL_SAMPLES, || drop(f.to_mont(&plain))),
        "us",
    );
    Ok(())
}
