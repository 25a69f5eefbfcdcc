//! Batched ECC vs the solo oracle: every lane of the 64-lane batch
//! layer must be **bit-identical** (at affine coordinates, which are
//! unique reduced representatives) to the solo `curve.rs` path on the
//! same inputs — across every backend, at word-boundary field widths,
//! and for partial batches.

use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::engine::EngineKind;
use montgomery_systolic::core::montgomery::MontgomeryParams;
use montgomery_systolic::core::traits::{BatchMontMul, SoftwareEngine};
use montgomery_systolic::core::{HardeningMode, MmmError};
use montgomery_systolic::ecc::batch_curve::{BatchCurve, PointLanes};
use montgomery_systolic::ecc::batch_field::BatchFieldCtx;
use montgomery_systolic::ecc::curve::{Curve, Point};
use montgomery_systolic::ecc::curves::p256;
use montgomery_systolic::ecc::field::FieldCtx;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The word-boundary test primes: NIST P-256's field prime (256-bit),
/// 2²⁵⁵ − 19 (255-bit, one under the limb boundary) and a 257-bit
/// prime (one over).
fn boundary_primes() -> Vec<(&'static str, Ubig)> {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let p255 = Ubig::pow2(255) - Ubig::from(19u64);
    assert!(p255.is_probable_prime(&mut rng, 16));
    // Smallest prime above 2²⁵⁶ (so bit_len = 257): search odd offsets.
    let mut p257 = Ubig::pow2(256) + Ubig::one();
    while !p257.is_probable_prime(&mut rng, 16) {
        p257 = p257 + Ubig::from(2u64);
    }
    assert_eq!(p257.bit_len(), 257);
    vec![("p256", p256().p), ("2^255-19", p255), ("257-bit", p257)]
}

/// Builds a solo context + curve + point over `p`, choosing small
/// coefficients and lifting the first x with a quadratic residue.
fn solo_fixture(p: &Ubig) -> (FieldCtx<SoftwareEngine>, Curve, Point) {
    let params = MontgomeryParams::hardware_safe(p);
    let mut f = FieldCtx::new(SoftwareEngine::new(params));
    let curve = Curve::try_new(&mut f, &Ubig::from(5u64), &Ubig::from(7u64))
        .expect("a=5, b=7 is non-singular for the test primes");
    let g = (2u64..)
        .find_map(|x| curve.lift_x(&mut f, &Ubig::from(x)))
        .expect("some small x lies on the curve");
    (f, curve, g)
}

/// Batch context for `p` on `kind`.
fn batch_fixture(
    p: &Ubig,
    kind: EngineKind,
) -> (
    BatchFieldCtx<montgomery_systolic::core::engine::AnyBatchEngine>,
    BatchCurve,
) {
    let params = MontgomeryParams::hardware_safe(p);
    let mut f = BatchFieldCtx::new(kind.build(params));
    let curve = BatchCurve::try_new(&mut f, &Ubig::from(5u64), &Ubig::from(7u64)).unwrap();
    (f, curve)
}

/// Affine output of the batched scalar mult for `ks` over splat(g).
fn batch_affine(p: &Ubig, kind: EngineKind, g: &Point, ks: &[Ubig]) -> Vec<Option<(Ubig, Ubig)>> {
    let (mut bf, bc) = batch_fixture(p, kind);
    let base = PointLanes::splat(g, ks.len());
    let acc = bc.scalar_mul(&mut bf, ks, &base, None);
    bc.to_affine(&mut bf, &acc)
}

// ---------------------------------------------------------------------
// Exhaustive bit-identity on a small prime: all backends, partial
// batches {1, 3, 63, 64}, forced and auto windows.
// ---------------------------------------------------------------------

#[test]
fn small_prime_lanes_match_solo_on_every_backend() {
    let p = Ubig::from(10007u64);
    let (mut sf, sc, g) = solo_fixture(&p);
    let mut rng = StdRng::seed_from_u64(42);
    for lanes in [1usize, 3, 63, 64] {
        let ks: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_below(&mut rng, &Ubig::from(20000u64)))
            .collect();
        let solo: Vec<Option<(Ubig, Ubig)>> = ks
            .iter()
            .map(|k| {
                let r = sc.scalar_mul(&mut sf, k, &g);
                sc.to_affine(&mut sf, &r)
            })
            .collect();
        for kind in EngineKind::ALL {
            let got = batch_affine(&p, kind, &g, &ks);
            assert_eq!(got, solo, "kind={kind:?} lanes={lanes}");
        }
    }
}

#[test]
fn small_prime_forced_windows_match_solo() {
    let p = Ubig::from(10007u64);
    let (mut sf, sc, g) = solo_fixture(&p);
    let ks: Vec<Ubig> = (0..7u64).map(|k| Ubig::from(k * k * 37 + 1)).collect();
    let solo: Vec<Option<(Ubig, Ubig)>> = ks
        .iter()
        .map(|k| {
            let r = sc.scalar_mul(&mut sf, k, &g);
            sc.to_affine(&mut sf, &r)
        })
        .collect();
    let (mut bf, bc) = batch_fixture(&p, EngineKind::Cios);
    let base = PointLanes::splat(&g, ks.len());
    for w in 1..=6usize {
        let acc = bc.scalar_mul(&mut bf, &ks, &base, Some(w));
        assert_eq!(bc.to_affine(&mut bf, &acc), solo, "window={w}");
    }
}

#[test]
fn small_prime_distinct_base_points_per_lane() {
    // Lanes multiply *different* points: [k0]G, [k1]2G, [k2]3G, ...
    let p = Ubig::from(10007u64);
    let (mut sf, sc, g) = solo_fixture(&p);
    let mut bases_solo = Vec::new();
    let mut acc = g.clone();
    for _ in 0..6 {
        bases_solo.push(acc.clone());
        acc = sc.add(&mut sf, &acc, &g);
    }
    let ks: Vec<Ubig> = (0..6u64).map(|k| Ubig::from(k * 13 + 5)).collect();
    let solo: Vec<Option<(Ubig, Ubig)>> = ks
        .iter()
        .zip(&bases_solo)
        .map(|(k, b)| {
            let r = sc.scalar_mul(&mut sf, k, b);
            sc.to_affine(&mut sf, &r)
        })
        .collect();
    for kind in EngineKind::ALL {
        let (mut bf, bc) = batch_fixture(&p, kind);
        let base = PointLanes::from_points(&bases_solo);
        let got = bc.scalar_mul(&mut bf, &ks, &base, None);
        assert_eq!(bc.to_affine(&mut bf, &got), solo, "kind={kind:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random scalars (including zero and beyond-the-order values) on
    /// random lane counts: batch ≡ solo on the default backend.
    #[test]
    fn prop_batch_lanes_match_solo(
        seed in 0u64..u64::MAX,
        lanes in 1usize..16,
    ) {
        let p = Ubig::from(10007u64);
        let (mut sf, sc, g) = solo_fixture(&p);
        let mut rng = StdRng::seed_from_u64(seed);
        let ks: Vec<Ubig> = (0..lanes)
            .map(|_| Ubig::random_bits(&mut rng, 16))
            .collect();
        let solo: Vec<Option<(Ubig, Ubig)>> = ks
            .iter()
            .map(|k| {
                let r = sc.scalar_mul(&mut sf, k, &g);
                sc.to_affine(&mut sf, &r)
            })
            .collect();
        let got = batch_affine(&p, EngineKind::default_kind(), &g, &ks);
        prop_assert_eq!(got, solo);
    }
}

// ---------------------------------------------------------------------
// Word-boundary field widths: 255 / 256 / 257-bit primes. The solo
// oracle anchors the default backend with a mixed scalar profile
// (full-width, short, 0, 1); the other backends are then checked
// bit-identical to the default backend's batch output.
// ---------------------------------------------------------------------

#[test]
fn word_boundary_primes_match_solo_and_cross_backend() {
    let mut rng = StdRng::seed_from_u64(7);
    for (name, p) in boundary_primes() {
        let (mut sf, sc, g) = solo_fixture(&p);
        // Distinct scalar profile, cycled across 64 lanes so partial
        // and full batches reuse the same four oracle results.
        let profile: Vec<Ubig> = vec![
            Ubig::random_below(&mut rng, &p), // full width
            Ubig::random_bits(&mut rng, 48),  // short
            Ubig::zero(),
            Ubig::one(),
        ];
        let oracle: Vec<Option<(Ubig, Ubig)>> = profile
            .iter()
            .map(|k| {
                let r = sc.scalar_mul(&mut sf, k, &g);
                sc.to_affine(&mut sf, &r)
            })
            .collect();
        for lanes in [1usize, 3, 63, 64] {
            let ks: Vec<Ubig> = (0..lanes).map(|i| profile[i % 4].clone()).collect();
            let want: Vec<Option<(Ubig, Ubig)>> =
                (0..lanes).map(|i| oracle[i % 4].clone()).collect();
            let got = batch_affine(&p, EngineKind::default_kind(), &g, &ks);
            assert_eq!(got, want, "prime={name} lanes={lanes}");
        }
        // Cross-backend identity with short scalars (the slow engines
        // only re-prove lane identity, already anchored above).
        let ks: Vec<Ubig> = (0..8).map(|_| Ubig::random_bits(&mut rng, 40)).collect();
        let reference = batch_affine(&p, EngineKind::default_kind(), &g, &ks);
        for kind in EngineKind::ALL {
            let got = batch_affine(&p, kind, &g, &ks);
            assert_eq!(got, reference, "prime={name} kind={kind:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Exception lanes inside batches: identity operands, equal points and
// inverse points scattered over a 64-lane add, and base points of
// order 2, 3 and 4 whose table build and scan hit them — each lane
// must agree with the solo case analysis.
// ---------------------------------------------------------------------

#[test]
fn exceptional_lanes_match_solo_case_analysis() {
    // One letter per lane: `i`/`j` = identity first/second operand,
    // `o` = both identity, `e` = equal points, `n` = inverse points,
    // `g` = generic. Lane 0 and lane 63 are exceptional, and equal
    // lanes sit next to each other and next to identity lanes.
    const MIX: &[u8; 64] = b"ieeggnggjgeggognggeeeggnjgggiegggngjeggognggeeggjgggnieggnggojge";
    let p = Ubig::from(10007u64);
    let (mut sf, sc, g) = solo_fixture(&p);
    let id = sc.identity(&mut sf);
    // multiples[m] = [m]G.
    let mut multiples = vec![id.clone(), g.clone()];
    for _ in 2..80 {
        let next = sc.add(&mut sf, multiples.last().unwrap(), &g);
        multiples.push(next);
    }
    let neg = |sf: &mut FieldCtx<SoftwareEngine>, pt: &Point| {
        let (x, y) = sc.to_affine(sf, pt).expect("not the identity");
        sc.point(sf, &x, &(&p - &y))
    };
    let (mut pts, mut others) = (Vec::new(), Vec::new());
    for (k, kind) in MIX.iter().enumerate() {
        let pk = multiples[k % 7 + 1].clone();
        let (a, b) = match kind {
            b'i' => (id.clone(), pk),
            b'j' => (pk, id.clone()),
            b'o' => (id.clone(), id.clone()),
            b'e' => (pk.clone(), pk),
            b'n' => (neg(&mut sf, &pk), pk),
            b'g' => (pk, multiples[k + 9].clone()),
            _ => unreachable!("lane kind {kind}"),
        };
        pts.push(a);
        others.push(b);
    }
    let solo: Vec<Option<(Ubig, Ubig)>> = pts
        .iter()
        .zip(&others)
        .map(|(a, b)| {
            let r = sc.add(&mut sf, a, b);
            sc.to_affine(&mut sf, &r)
        })
        .collect();
    assert!(
        solo[0].is_some() && solo[5].is_none(),
        "the mix is exceptional"
    );
    let (lhs, rhs) = (
        PointLanes::from_points(&pts),
        PointLanes::from_points(&others),
    );
    for kind in EngineKind::ALL {
        for mode in [HardeningMode::Off, HardeningMode::Hardened] {
            let (mut bf, bc) = batch_fixture(&p, kind);
            bf.engine_mut().set_hardening(mode);
            let sum = bc.add(&mut bf, &lhs, &rhs);
            assert_eq!(bc.to_affine(&mut bf, &sum), solo, "kind={kind:?} {mode:?}");
        }
    }
}

/// A curve over GF(97) with base points of order 2, 3 and 4, found by
/// brute force over `b` (with `a = 2`) and the points of each curve.
fn small_order_fixture() -> (FieldCtx<SoftwareEngine>, Curve, [Point; 3], Ubig, Ubig) {
    let p = Ubig::from(97u64);
    let a = Ubig::from(2u64);
    let params = MontgomeryParams::hardware_safe(&p);
    let mut f = FieldCtx::new(SoftwareEngine::new(params));
    for b in (1..97u64).map(Ubig::from) {
        let Ok(curve) = Curve::try_new(&mut f, &a, &b) else {
            continue;
        };
        // by_order[n − 1] is the first point found of order n ≤ 4.
        let mut by_order: [Option<Point>; 4] = Default::default();
        for x in 0..97u64 {
            let Some(pt) = curve.lift_x(&mut f, &Ubig::from(x)) else {
                continue;
            };
            // Walks q = [n]P for n = 1, 2, 3, 4.
            let mut q = pt.clone();
            for slot in &mut by_order {
                if f.is_zero(&q.z) {
                    slot.get_or_insert(pt.clone());
                    break;
                }
                q = curve.add(&mut f, &q, &pt);
            }
        }
        if let [_, Some(p2), Some(p3), Some(p4)] = by_order {
            return (f, curve, [p2, p3, p4], a, b);
        }
    }
    panic!("no curve over GF(97) with a = 2 has points of order 2, 3 and 4");
}

#[test]
fn small_order_base_points_match_solo() {
    // Table entries [d]P of a point of order 2, 3 or 4 are the identity,
    // an inverse pair or an equal pair, so the table build and the scan
    // run every exceptional lane of the batched addition.
    let (mut sf, sc, small, a, b) = small_order_fixture();
    let p = sf.p().clone();
    let (mut bases, mut ks) = (Vec::new(), Vec::new());
    for pt in &small {
        for k in 0..9u64 {
            bases.push(pt.clone());
            ks.push(Ubig::from(k * 5 + k / 3));
        }
    }
    let solo: Vec<Option<(Ubig, Ubig)>> = ks
        .iter()
        .zip(&bases)
        .map(|(k, pt)| {
            let r = sc.scalar_mul(&mut sf, k, pt);
            sc.to_affine(&mut sf, &r)
        })
        .collect();
    let base = PointLanes::from_points(&bases);
    for kind in EngineKind::ALL {
        let params = MontgomeryParams::hardware_safe(&p);
        let mut bf = BatchFieldCtx::new(kind.build(params));
        let bc = BatchCurve::try_new(&mut bf, &a, &b).unwrap();
        for w in 1..=4usize {
            let acc = bc.scalar_mul(&mut bf, &ks, &base, Some(w));
            assert_eq!(
                bc.to_affine(&mut bf, &acc),
                solo,
                "kind={kind:?} window={w}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Hardened mode: the constant-time scan schedule must not change any
// result.
// ---------------------------------------------------------------------

#[test]
fn hardened_scan_is_result_identical() {
    let p = Ubig::from(10007u64);
    let (mut sf, sc, g) = solo_fixture(&p);
    let ks: Vec<Ubig> = (0..5u64).map(|k| Ubig::from(k * 701 + 3)).collect();
    let solo: Vec<Option<(Ubig, Ubig)>> = ks
        .iter()
        .map(|k| {
            let r = sc.scalar_mul(&mut sf, k, &g);
            sc.to_affine(&mut sf, &r)
        })
        .collect();
    for kind in EngineKind::ALL {
        let (mut bf, bc) = batch_fixture(&p, kind);
        bf.engine_mut().set_hardening(HardeningMode::Hardened);
        let base = PointLanes::splat(&g, ks.len());
        let acc = bc.scalar_mul(&mut bf, &ks, &base, None);
        assert_eq!(bc.to_affine(&mut bf, &acc), solo, "kind={kind:?}");
    }
}

// ---------------------------------------------------------------------
// Batched field primitives at a word boundary: simultaneous inversion
// and the Montgomery domain round trip.
// ---------------------------------------------------------------------

#[test]
fn simultaneous_inversion_at_word_boundaries() {
    let mut rng = StdRng::seed_from_u64(11);
    for (name, p) in boundary_primes() {
        let params = MontgomeryParams::hardware_safe(&p);
        let mut bf = BatchFieldCtx::new(EngineKind::default_kind().build(params));
        let mut plain: Vec<Ubig> = (0..9).map(|_| Ubig::random_below(&mut rng, &p)).collect();
        plain[4] = Ubig::zero();
        let lanes = bf.to_mont(&plain);
        let invs = bf.inv(&lanes);
        for (k, inv) in invs.iter().enumerate() {
            if plain[k].is_zero() {
                assert!(inv.is_none(), "prime={name} lane {k}");
            } else {
                let prod = bf.mul(&lanes[k..=k], std::slice::from_ref(inv.as_ref().unwrap()));
                let back = bf.from_mont(&prod);
                assert_eq!(back[0], Ubig::one(), "prime={name} lane {k}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Typed errors from the batch layer.
// ---------------------------------------------------------------------

#[test]
fn batch_layer_reports_typed_errors() {
    let p = Ubig::from(10007u64);
    let (mut bf, bc) = batch_fixture(&p, EngineKind::default_kind());
    let err = bc
        .try_points(&mut bf, &[(Ubig::from(2u64), Ubig::from(9999u64))])
        .unwrap_err();
    assert!(matches!(err, MmmError::PointNotOnCurve { lane: 0 }));
    let err = BatchCurve::try_new(&mut bf, &Ubig::zero(), &Ubig::zero()).unwrap_err();
    assert!(matches!(err, MmmError::SingularCurve));
}
