//! Cross-engine property tests for the radix-2⁶⁴ and radix-2⁵² CIOS
//! backends and the backend-dispatch layer: CIOS ≡ CIOS-52 (on every
//! available kernel: portable/avx2/ifma) ≡ bit-sliced ≡
//! `Ubig::modpow`, lane for lane and **bit for bit** (including the
//! non-canonical `< 2N` Montgomery representatives), across
//! word-boundary widths and partial batches; plus round-trip proptests
//! for the word-domain `MontgomeryParams` view and the 64↔52-bit
//! digit-domain conversions.

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::batch::try_mont_mul_many;
use montgomery_systolic::core::cios::CiosMont;
use montgomery_systolic::core::cios52::{
    digits52_to_limbs, limbs_to_digits52, Cios52Kernel, DIGIT_BITS, DIGIT_MASK,
};
use montgomery_systolic::core::expo_batch::{try_modexp_many, BatchModExp};
use montgomery_systolic::core::modgen::{random_operand, random_safe_params};
use montgomery_systolic::core::montgomery::MontgomeryParams;
use montgomery_systolic::core::wave_packed::PackedMmmc;
use montgomery_systolic::core::{
    AnyBatchEngine, BatchMontMul, EngineConfig, EngineKind, MontMul, ScalarSet, WindowPolicy,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cios_bit_identical_to_bit_sliced_per_lane(
        l in 30usize..100,
        seed in any::<u64>(),
        lane_sel in 0usize..4
    ) {
        let lanes = [1usize, 3, 63, 64][lane_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let params = random_safe_params(&mut rng, l);
        let xs: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &params)).collect();
        let ys: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &params)).collect();

        let mut cios = EngineKind::Cios.build(params.clone());
        let mut bits = EngineKind::BitSliced.build(params.clone());
        let got = cios.mont_mul_batch(&xs, &ys);
        let want = bits.mont_mul_batch(&xs, &ys);
        prop_assert_eq!(&got, &want, "batch CIOS vs bit-sliced at l={}", l);

        // The radix-2⁵² carry-save engine shares the contract too, on
        // every kernel this host can run.
        for &kernel in Cios52Kernel::available() {
            let mut c52 = AnyBatchEngine::with_cios52_kernel(params.clone(), kernel);
            let got52 = c52.mont_mul_batch(&xs, &ys);
            prop_assert_eq!(&got52, &want, "cios52/{} at l={}", kernel.name(), l);
        }

        // The scalar CIOS engine and the solo packed wave model agree
        // with both, so all four engines share one contract.
        let mut scalar = CiosMont::new(params.clone());
        let mut solo = PackedMmmc::new(params.clone());
        for k in 0..lanes {
            prop_assert_eq!(&got[k], &scalar.mont_mul(&xs[k], &ys[k]), "scalar lane {}", k);
            prop_assert_eq!(&got[k], &solo.mont_mul(&xs[k], &ys[k]), "packed lane {}", k);
        }
    }

    #[test]
    fn windowed_modexp_agrees_across_backends_and_oracle(
        l in 30usize..100,
        seed in any::<u64>(),
        lane_sel in 0usize..4,
        w in 1usize..=5
    ) {
        let lanes = [1usize, 3, 63, 64][lane_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let params = random_safe_params(&mut rng, l);
        let n = params.n().clone();
        let ms: Vec<Ubig> = (0..lanes).map(|_| Ubig::random_below(&mut rng, &n)).collect();
        // Per-lane exponents of wildly different lengths (including 0).
        let es: Vec<Ubig> = (0..lanes)
            .map(|k| Ubig::random_bits(&mut rng, (k * 17) % (l + 1)))
            .collect();
        let (es_set, window) = (ScalarSet::PerLane(&es), WindowPolicy::Fixed(w));
        let mut cios = BatchModExp::new(EngineKind::Cios.build(params.clone()));
        let got = cios.try_modexp(&ms, es_set, window).unwrap();
        let mut bits = BatchModExp::new(EngineKind::BitSliced.build(params.clone()));
        prop_assert_eq!(&got, &bits.try_modexp(&ms, es_set, window).unwrap(), "w={}", w);
        let mut c52 = BatchModExp::new(EngineKind::Cios52.build(params.clone()));
        prop_assert_eq!(&got, &c52.try_modexp(&ms, es_set, window).unwrap(), "cios52 w={}", w);
        for k in 0..lanes {
            prop_assert_eq!(&got[k], &ms[k].modpow(&es[k], &n), "w={} lane {}", w, k);
        }
    }

    #[test]
    fn dispatch_entry_points_agree_across_kinds(
        l in 10usize..40,
        seed in any::<u64>(),
        count in 1usize..130
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = random_safe_params(&mut rng, l);
        let xs: Vec<Ubig> = (0..count).map(|_| random_operand(&mut rng, &params)).collect();
        let ys: Vec<Ubig> = (0..count).map(|_| random_operand(&mut rng, &params)).collect();
        let ms: Vec<Ubig> = (0..count)
            .map(|_| Ubig::random_below(&mut rng, params.n()))
            .collect();
        let es: Vec<Ubig> = (0..count)
            .map(|_| Ubig::random_bits(&mut rng, l))
            .collect();
        // Sweep *every* backend (not a hardcoded pair) so the next
        // EngineKind addition is covered automatically.
        let mul = |kind| {
            let config = EngineConfig::default().with_backend(kind);
            try_mont_mul_many(&params, &xs, &ys, &config).unwrap()
        };
        let want_mul = mul(EngineKind::ALL[0]);
        let modexp = |kind| {
            let config = EngineConfig::default().with_backend(kind);
            try_modexp_many(&params, &ms, &es, &config).unwrap()
        };
        let want_exp = modexp(EngineKind::ALL[0]);
        for kind in &EngineKind::ALL[1..] {
            prop_assert_eq!(
                mul(*kind),
                want_mul.clone(),
                "try_mont_mul_many({})",
                kind.name()
            );
            prop_assert_eq!(
                modexp(*kind),
                want_exp.clone(),
                "try_modexp_many({})",
                kind.name()
            );
        }
    }

    #[test]
    fn word_domain_conversions_roundtrip(
        l in 5usize..130,
        seed in any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = random_safe_params(&mut rng, l);
        let n = params.n().clone();
        let w = params.word_domain();
        let x = Ubig::random_below(&mut rng, &n);
        // Canonical representatives in both domains, by definition.
        let xb = x.modmul(&params.r_mod_n(), &n);
        let xw = x.modmul(&w.r_mod_n(), &n);
        // Conversions hit the definitional values…
        prop_assert_eq!(&params.bit_to_word_mont(&xb), &xw, "bit→word at l={}", l);
        prop_assert_eq!(&params.word_to_bit_mont(&xw), &xb, "word→bit at l={}", l);
        // …and round-trip in both directions.
        prop_assert_eq!(&params.word_to_bit_mont(&params.bit_to_word_mont(&xb)), &xb);
        prop_assert_eq!(&params.bit_to_word_mont(&params.word_to_bit_mont(&xw)), &xw);
        // Also from a non-canonical (< 2N) bit-domain representative:
        // same residue class, same converted value.
        let xb2 = &xb + &n;
        if params.check_operand(&xb2) {
            prop_assert_eq!(&params.bit_to_word_mont(&xb2), &xw, "non-canonical rep");
        }
    }

    #[test]
    fn digit_domain_conversions_roundtrip_from_limbs(
        ws in prop::collection::vec(any::<u64>(), 1..8)
    ) {
        // 64-bit limbs → 52-bit digits → limbs is the identity, and
        // the digit vector is normalized and value-preserving.
        let digits = (ws.len() * 64).div_ceil(DIGIT_BITS);
        let ds = limbs_to_digits52(&ws, digits);
        prop_assert!(ds.iter().all(|&d| d <= DIGIT_MASK));
        prop_assert_eq!(digits52_to_limbs(&ds, ws.len()), ws.clone());
        // Value check against the big-integer view.
        let v = Ubig::from_limbs(ws.clone());
        let mut back = Ubig::zero();
        for &dig in ds.iter().rev() {
            back = (&back << DIGIT_BITS) + Ubig::from(dig);
        }
        prop_assert_eq!(back, v);
    }

    #[test]
    fn digit_domain_conversions_roundtrip_from_digits(
        raw in prop::collection::vec(any::<u64>(), 1..10)
    ) {
        // Normalized 52-bit digits → limbs → digits is the identity
        // (the other direction of the round trip).
        let ds: Vec<u64> = raw.iter().map(|&v| v & DIGIT_MASK).collect();
        let limbs = (ds.len() * DIGIT_BITS).div_ceil(64);
        let ws = digits52_to_limbs(&ds, limbs);
        prop_assert_eq!(limbs_to_digits52(&ws, ds.len()), ds);
    }
}

/// Deterministic regression at the exact widths the issue calls out:
/// word-boundary widths (63/64/65) and the RSA serving sizes (256,
/// 1024), every partial batch size, mont_mul bit-identity.
#[test]
fn cios_bit_identity_at_word_boundary_and_serving_widths() {
    let mut rng = StdRng::seed_from_u64(0xC105);
    for l in [63usize, 64, 65, 256, 1024] {
        let params = random_safe_params(&mut rng, l);
        let mut cios = EngineKind::Cios.build(params.clone());
        let mut bits = EngineKind::BitSliced.build(params.clone());
        let mut scalar = CiosMont::new(params.clone());
        // Every radix-2⁵² kernel this host can run joins the grid.
        let mut c52: Vec<AnyBatchEngine> = Cios52Kernel::available()
            .iter()
            .map(|&k| AnyBatchEngine::with_cios52_kernel(params.clone(), k))
            .collect();
        for lanes in [1usize, 3, 63, 64] {
            let xs: Vec<Ubig> = (0..lanes)
                .map(|_| random_operand(&mut rng, &params))
                .collect();
            let ys: Vec<Ubig> = (0..lanes)
                .map(|_| random_operand(&mut rng, &params))
                .collect();
            let got = cios.mont_mul_batch(&xs, &ys);
            let want = bits.mont_mul_batch(&xs, &ys);
            assert_eq!(got, want, "l={l} lanes={lanes}");
            assert_eq!(
                got[lanes - 1],
                scalar.mont_mul(&xs[lanes - 1], &ys[lanes - 1]),
                "l={l} lanes={lanes} scalar"
            );
            for e in c52.iter_mut() {
                assert_eq!(
                    e.mont_mul_batch(&xs, &ys),
                    want,
                    "cios52/{} l={l} lanes={lanes}",
                    e.name()
                );
            }
        }
    }
}

/// Deterministic regression: windowed batch exponentiation agrees
/// across backends and with the big-integer oracle at word-boundary
/// widths and at l = 256 (exponents kept short so the bit-sliced
/// oracle stays fast in debug builds).
#[test]
fn windowed_modexp_cross_backend_word_boundary_widths() {
    let mut rng = StdRng::seed_from_u64(0xC106);
    for l in [63usize, 64, 65, 256] {
        let params = random_safe_params(&mut rng, l);
        let n = params.n().clone();
        let ebits = l.min(72);
        for lanes in [1usize, 64] {
            let ms: Vec<Ubig> = (0..lanes)
                .map(|_| Ubig::random_below(&mut rng, &n))
                .collect();
            let es: Vec<Ubig> = (0..lanes)
                .map(|_| Ubig::random_bits(&mut rng, ebits))
                .collect();
            let es_set = ScalarSet::PerLane(&es);
            let mut cios = BatchModExp::new(EngineKind::Cios.build(params.clone()));
            let got = cios.try_modexp(&ms, es_set, WindowPolicy::Auto).unwrap();
            let mut bits = BatchModExp::new(EngineKind::BitSliced.build(params.clone()));
            assert_eq!(
                got,
                bits.try_modexp(&ms, es_set, WindowPolicy::Auto).unwrap(),
                "l={l} lanes={lanes}"
            );
            for k in 0..lanes {
                assert_eq!(got[k], ms[k].modpow(&es[k], &n), "l={l} lane {k}");
            }
        }
    }
}

/// The CIOS backend has no hardware-safety constraint: at `tight`
/// widths (where the systolic array would drop its leftmost carry)
/// it must still match Algorithm 2 exactly.
#[test]
fn cios_handles_hardware_unsafe_tight_widths() {
    use montgomery_systolic::core::montgomery::mont_mul_alg2;
    let mut rng = StdRng::seed_from_u64(0xC107);
    for bits in [64usize, 65, 128] {
        // Force a modulus in the unsafe band N ≳ ⅔·2^l.
        let mut n = Ubig::pow2(bits) - Ubig::one();
        if n.is_even() {
            n = n - Ubig::one();
        }
        let params = MontgomeryParams::tight(&n);
        assert!(!params.is_hardware_safe(), "bits={bits}");
        let mut batch = EngineKind::Cios.build(params.clone());
        let xs: Vec<Ubig> = (0..8).map(|_| random_operand(&mut rng, &params)).collect();
        let got = batch.mont_mul_batch(&xs, &xs);
        for k in 0..8 {
            assert_eq!(got[k], mont_mul_alg2(&params, &xs[k], &xs[k]), "lane {k}");
        }
        // The radix-2⁵² engine is equally unconstrained.
        for &kernel in Cios52Kernel::available() {
            let mut c52 = AnyBatchEngine::with_cios52_kernel(params.clone(), kernel);
            assert_eq!(
                c52.mont_mul_batch(&xs, &xs),
                got,
                "cios52/{} bits={bits}",
                kernel.name()
            );
        }
    }
}

/// Every member of `EngineKind::ALL` round-trips through its stable
/// name — so the *next* backend addition is caught automatically if
/// its `FromStr` arm is forgotten.
#[test]
fn every_engine_kind_roundtrips_through_fromstr() {
    for kind in EngineKind::ALL {
        assert_eq!(
            kind.name().parse::<EngineKind>().as_ref(),
            Ok(&kind),
            "{} must parse back to {:?}",
            kind.name(),
            kind
        );
    }
    assert_eq!(EngineKind::ALL.len(), EngineKind::available().len());
}

/// Edge-operand sweep per radix-2⁵² kernel: every pair from
/// {0, 1, N−1, N, 2N−1}, spread over all 64 lanes so every lane group
/// sees them, against the largest hardware-safe modulus and the tight
/// all-ones modulus `2^l − 1` — the operands and moduli that drive the
/// carry-save digits closest to their headroom. Widths cover `rem = 0`
/// ((l+2) a multiple of 52: no partial step) and `rem > 0`. Plain
/// results must equal `mont_mul_alg2` bit for bit, hardened ones
/// `mont_mul_alg2 mod N`.
#[test]
fn cios52_edge_operands_every_kernel() {
    use montgomery_systolic::core::config::HardeningMode;
    use montgomery_systolic::core::montgomery::mont_mul_alg2;
    for l in [50usize, 102, 154, 51, 103, 257, 513, 1025] {
        let safe = MontgomeryParams::new(&MontgomeryParams::max_safe_modulus(l), l);
        let tight = MontgomeryParams::tight(&(Ubig::pow2(l) - Ubig::one()));
        for p in [safe, tight] {
            let n = p.n();
            let edges = [
                Ubig::zero(),
                Ubig::one(),
                n - &Ubig::one(),
                n.clone(),
                &p.two_n() - &Ubig::one(),
            ];
            let pairs: Vec<(&Ubig, &Ubig)> = edges
                .iter()
                .flat_map(|x| edges.iter().map(move |y| (x, y)))
                .collect();
            let (xs, ys): (Vec<Ubig>, Vec<Ubig>) = (0..64)
                .map(|k| {
                    let (x, y) = pairs[k % pairs.len()];
                    (x.clone(), y.clone())
                })
                .unzip();
            let want: Vec<Ubig> = xs
                .iter()
                .zip(&ys)
                .map(|(x, y)| mont_mul_alg2(&p, x, y))
                .collect();
            for &kernel in Cios52Kernel::available() {
                let mut e = AnyBatchEngine::with_cios52_kernel(p.clone(), kernel);
                assert_eq!(
                    e.mont_mul_batch(&xs, &ys),
                    want,
                    "cios52/{} l={l} N={n:x}",
                    kernel.name()
                );
                e.set_hardening(HardeningMode::Hardened);
                let got = e.mont_mul_batch(&xs, &ys);
                for (k, w) in want.iter().enumerate() {
                    assert_eq!(
                        got[k],
                        w.rem(n),
                        "hardened cios52/{} l={l} lane {k}",
                        kernel.name()
                    );
                }
            }
        }
    }
}
