//! 64-lane Jacobian point arithmetic and batched windowed scalar
//! multiplication — ECC as a second tenant on the batch engine stack.
//!
//! A [`PointLanes`] is a struct-of-arrays batch of Jacobian points:
//! lane `k` is `(X[k] : Y[k] : Z[k])` in the Montgomery domain, with
//! `Z ≡ 0` marking the identity, exactly as in the solo
//! [`Curve`](crate::curve::Curve). The formulas are the same
//! `dbl-2007-bl` / `add-2007-bl` chains, vectorized so that every
//! field multiplication advances all lanes in **one engine call**.
//!
//! **Exception handling.** The solo code branches before the formulas
//! (identity operands, equal points, inverse points); a batch cannot,
//! because one lane's exception would stall 63 others. Instead:
//!
//! * doubling needs *no* patching — `Z3 = 2YZ` vanishes exactly when
//!   the input is the identity (`Z ≡ 0`) or 2-torsion (`Y ≡ 0`), so the
//!   degenerate lanes come out of the unified formula already correct;
//! * addition runs the unified formula, then patches the (rare)
//!   exceptional lanes with the same case analysis as the solo `add`:
//!   identity operands copy the other point, and equal points are
//!   gathered into one sub-batch, doubled by one batched
//!   [`BatchCurve::double`] and scattered back. Inverse points need no
//!   patch: `Z3 = (…)·H` vanishes with `H ≡ 0`, so they come out as the
//!   identity. Every multiplication, patches included, is an engine
//!   call.
//!
//! **Scalar multiplication** is fixed-window over the shared
//! windowed-scan core (`mmm_core::scan`) that also drives the RSA
//! exponentiator: one table of `[d]P` lane batches, then per window a
//! run of batched doublings and one batched table addition. The window
//! is chosen by the same weighted cost model, with doubling ≈ 10 and
//! addition ≈ 16 engine calls (the formulas' multiplication counts).

use crate::batch_field::BatchFieldCtx;
use crate::curve::Point;
use crate::curves::check_nonsingular;
use crate::field::Fe;
use mmm_bigint::limbs::Limb;
use mmm_bigint::Ubig;
use mmm_core::error::MmmError;
use mmm_core::scan::{
    best_fixed_window_weighted, run_windowed_scan, select_entry, ScalarSet, WindowScanClient,
};
use mmm_core::traits::BatchMontMul;

/// Engine calls per batched point doubling (2M + 8S).
pub const DOUBLE_FIELD_MULS: usize = 10;
/// Engine calls per batched point addition (11M + 5S).
pub const ADD_FIELD_MULS: usize = 16;

/// A lane-sliced batch of Jacobian points (Montgomery-domain
/// coordinates; lane `k` is identity ⇔ `Z[k] ≡ 0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointLanes {
    /// X coordinates, one per lane.
    pub x: Vec<Fe>,
    /// Y coordinates, one per lane.
    pub y: Vec<Fe>,
    /// Z coordinates, one per lane.
    pub z: Vec<Fe>,
}

impl PointLanes {
    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.x.len()
    }

    /// Extracts lane `k` as a solo [`Point`].
    pub fn lane(&self, k: usize) -> Point {
        Point {
            x: self.x[k].clone(),
            y: self.y[k].clone(),
            z: self.z[k].clone(),
        }
    }

    /// Overwrites lane `k` with a solo [`Point`].
    pub fn set_lane(&mut self, k: usize, p: &Point) {
        self.x[k].clone_from(&p.x);
        self.y[k].clone_from(&p.y);
        self.z[k].clone_from(&p.z);
    }

    /// Slices a batch out of solo points.
    pub fn from_points(pts: &[Point]) -> Self {
        PointLanes {
            x: pts.iter().map(|p| p.x.clone()).collect(),
            y: pts.iter().map(|p| p.y.clone()).collect(),
            z: pts.iter().map(|p| p.z.clone()).collect(),
        }
    }

    /// Broadcasts one solo point across `lanes` lanes.
    pub fn splat(p: &Point, lanes: usize) -> Self {
        PointLanes {
            x: vec![p.x.clone(); lanes],
            y: vec![p.y.clone(); lanes],
            z: vec![p.z.clone(); lanes],
        }
    }
}

/// A short-Weierstrass curve `y² = x³ + ax + b` for batched point
/// arithmetic (coefficients in the Montgomery domain, like the solo
/// [`Curve`](crate::curve::Curve)).
#[derive(Debug, Clone)]
pub struct BatchCurve {
    /// Coefficient `a` (Montgomery domain).
    pub a: Fe,
    /// Coefficient `b` (Montgomery domain).
    pub b: Fe,
}

impl BatchCurve {
    /// Builds a curve from plain (non-Montgomery) coefficients,
    /// rejecting singular curves with a typed error.
    pub fn try_new<E: BatchMontMul>(
        f: &mut BatchFieldCtx<E>,
        a_plain: &Ubig,
        b_plain: &Ubig,
    ) -> Result<BatchCurve, MmmError> {
        check_nonsingular(f.p(), a_plain, b_plain)?;
        let coeffs = f.to_mont(&[a_plain.clone(), b_plain.clone()]);
        Ok(BatchCurve {
            a: coeffs[0].clone(),
            b: coeffs[1].clone(),
        })
    }

    /// Builds a curve from plain coefficients.
    ///
    /// # Panics
    /// Panics if the discriminant `4a³ + 27b²` vanishes (singular
    /// curve); [`BatchCurve::try_new`] is the fallible twin.
    pub fn new<E: BatchMontMul>(
        f: &mut BatchFieldCtx<E>,
        a_plain: &Ubig,
        b_plain: &Ubig,
    ) -> BatchCurve {
        Self::try_new(f, a_plain, b_plain).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A batch of identity elements.
    pub fn identity<E: BatchMontMul>(&self, f: &mut BatchFieldCtx<E>, lanes: usize) -> PointLanes {
        PointLanes {
            x: vec![f.one_bar().clone(); lanes],
            y: vec![f.one_bar().clone(); lanes],
            z: vec![Ubig::zero(); lanes],
        }
    }

    /// Lifts affine plain coordinate pairs onto the curve, reporting
    /// the first lane that fails the curve equation.
    pub fn try_points<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        xy: &[(Ubig, Ubig)],
    ) -> Result<PointLanes, MmmError> {
        let xs: Vec<Ubig> = xy.iter().map(|(x, _)| x.clone()).collect();
        let ys: Vec<Ubig> = xy.iter().map(|(_, y)| y.clone()).collect();
        let xm = f.to_mont(&xs);
        let ym = f.to_mont(&ys);
        let one = f.to_mont(&vec![Ubig::one(); xy.len()]);
        let pts = PointLanes {
            x: xm,
            y: ym,
            z: one,
        };
        let on = self.contains(f, &pts);
        if let Some(lane) = on.iter().position(|ok| !ok) {
            return Err(MmmError::PointNotOnCurve { lane });
        }
        Ok(pts)
    }

    /// Lane-wise projective curve-equation check
    /// (`Y² = X³ + a·X·Z⁴ + b·Z⁶`; identity lanes pass).
    pub fn contains<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        pts: &PointLanes,
    ) -> Vec<bool> {
        let y2 = f.sqr(&pts.y);
        let x2 = f.sqr(&pts.x);
        let x3 = f.mul(&x2, &pts.x);
        let z2 = f.sqr(&pts.z);
        let z4 = f.sqr(&z2);
        let z6 = f.mul(&z4, &z2);
        let ax = f.mul_const(&pts.x, &self.a);
        let axz4 = f.mul(&ax, &z4);
        let bz6 = f.mul_const(&z6, &self.b);
        let rhs = {
            let t = f.add(&x3, &axz4);
            f.add(&t, &bz6)
        };
        let lhs_plain = f.from_mont(&y2);
        let rhs_plain = f.from_mont(&rhs);
        (0..pts.lanes())
            .map(|k| f.is_zero(&pts.z[k]) || lhs_plain[k] == rhs_plain[k])
            .collect()
    }

    /// Batched point doubling (`dbl-2007-bl`), exception-free: lanes
    /// holding the identity (`Z ≡ 0`) or a 2-torsion point (`Y ≡ 0`)
    /// come out with `Z3 = 2YZ ≡ 0` — already the identity.
    pub fn double<E: BatchMontMul>(&self, f: &mut BatchFieldCtx<E>, p1: &PointLanes) -> PointLanes {
        let xx = f.sqr(&p1.x);
        let yy = f.sqr(&p1.y);
        let yyyy = f.sqr(&yy);
        let zz = f.sqr(&p1.z);
        // S = 2((X+YY)² − XX − YYYY)
        let s = {
            let t = f.add(&p1.x, &yy);
            let t = f.sqr(&t);
            let t = f.sub(&t, &xx);
            let t = f.sub(&t, &yyyy);
            f.dbl(&t)
        };
        // M = 3XX + a·ZZ²
        let m = {
            let t3 = f.mul_small(&xx, 3);
            let zz2 = f.sqr(&zz);
            let azz2 = f.mul_const(&zz2, &self.a);
            f.add(&t3, &azz2)
        };
        // X3 = M² − 2S
        let x3 = {
            let m2 = f.sqr(&m);
            let s2 = f.dbl(&s);
            f.sub(&m2, &s2)
        };
        // Y3 = M(S − X3) − 8·YYYY
        let y3 = {
            let t = f.sub(&s, &x3);
            let t = f.mul(&m, &t);
            let y8 = f.mul_small(&yyyy, 8);
            f.sub(&t, &y8)
        };
        // Z3 = (Y+Z)² − YY − ZZ  (= 2YZ)
        let z3 = {
            let t = f.add(&p1.y, &p1.z);
            let t = f.sqr(&t);
            let t = f.sub(&t, &yy);
            f.sub(&t, &zz)
        };
        PointLanes {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Batched point addition (`add-2007-bl`) with per-lane exception
    /// patching: identity operands copy the other point, equal points
    /// are doubled in one batched sub-batch, and inverse points leave
    /// the formula as the identity.
    pub fn add<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        p1: &PointLanes,
        p2: &PointLanes,
    ) -> PointLanes {
        let z1z1 = f.sqr(&p1.z);
        let z2z2 = f.sqr(&p2.z);
        let u1 = f.mul(&p1.x, &z2z2);
        let u2 = f.mul(&p2.x, &z1z1);
        let s1 = {
            let t = f.mul(&p1.y, &p2.z);
            f.mul(&t, &z2z2)
        };
        let s2 = {
            let t = f.mul(&p2.y, &p1.z);
            f.mul(&t, &z1z1)
        };
        let h = f.sub(&u2, &u1);
        let r_half = f.sub(&s2, &s1);
        let i = {
            let h2 = f.dbl(&h);
            f.sqr(&h2)
        };
        let j = f.mul(&h, &i);
        let r = f.dbl(&r_half);
        let v = f.mul(&u1, &i);
        // X3 = r² − J − 2V
        let x3 = {
            let r2 = f.sqr(&r);
            let t = f.sub(&r2, &j);
            let v2 = f.dbl(&v);
            f.sub(&t, &v2)
        };
        // Y3 = r(V − X3) − 2·S1·J
        let y3 = {
            let t = f.sub(&v, &x3);
            let t = f.mul(&r, &t);
            let sj = f.mul(&s1, &j);
            let sj2 = f.dbl(&sj);
            f.sub(&t, &sj2)
        };
        // Z3 = ((Z1+Z2)² − Z1Z1 − Z2Z2)·H
        let z3 = {
            let t = f.add(&p1.z, &p2.z);
            let t = f.sqr(&t);
            let t = f.sub(&t, &z1z1);
            let t = f.sub(&t, &z2z2);
            f.mul(&t, &h)
        };
        let mut out = PointLanes {
            x: x3,
            y: y3,
            z: z3,
        };
        // Patch the exceptional lanes — the same case analysis the solo
        // `add` performs up front, applied after the fact to only the
        // lanes that need it. Inverse lanes (H ≡ 0, r ≢ 0) need no
        // patch: Z3 = (…)·H ≡ 0 is already the identity.
        let mut equal = Vec::new();
        for k in 0..out.lanes() {
            if f.is_zero(&p1.z[k]) {
                out.set_lane(k, &p2.lane(k));
            } else if f.is_zero(&p2.z[k]) {
                out.set_lane(k, &p1.lane(k));
            } else if f.is_zero(&h[k]) && f.is_zero(&r_half[k]) {
                equal.push(k);
            }
        }
        if !equal.is_empty() {
            let pts: Vec<Point> = equal.iter().map(|&k| p1.lane(k)).collect();
            let doubled = self.double(f, &PointLanes::from_points(&pts));
            for (i, &k) in equal.iter().enumerate() {
                out.set_lane(k, &doubled.lane(i));
            }
        }
        out
    }

    /// Batched fixed-window scalar multiplication: lane `k` of the
    /// result is `[ks[k]]·P[k]`. Driven by the shared windowed-scan
    /// core; `window` forces a width (1..=8), `None` picks the
    /// cost-model optimum for the batch's maximum scalar length. Under
    /// engine hardening the scan never skips all-zero windows, making
    /// the double/add schedule scalar-independent.
    pub fn scalar_mul<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        ks: &[Ubig],
        base: &PointLanes,
        window: Option<usize>,
    ) -> PointLanes {
        assert_eq!(ks.len(), base.lanes(), "one scalar per lane");
        let ks = ScalarSet::PerLane(ks);
        let lanes = base.lanes();
        let t = ks.max_bit_len();
        let window = window.unwrap_or_else(|| {
            best_fixed_window_weighted(
                t,
                ADD_FIELD_MULS as f64,
                DOUBLE_FIELD_MULS as f64,
                ADD_FIELD_MULS as f64,
            )
        });
        assert!(
            (1..=8).contains(&window),
            "window width {window} not in 1..=8"
        );
        let hardened = f.engine().hardening().is_hardened();
        // Table of [d]P lane batches for d = 0 .. 2^w − 1: [2]P is a
        // batched double, then each [d]P = [d−1]P + P, which is
        // exceptional only on lanes where P has small order.
        let table: Vec<PointLanes> = if t == 0 {
            Vec::new()
        } else {
            let mut table = Vec::with_capacity(1 << window);
            table.push(self.identity(f, lanes));
            table.push(base.clone());
            for d in 2..(1usize << window) {
                let next = if d == 2 {
                    self.double(f, base)
                } else {
                    self.add(f, &table[d - 1], base)
                };
                table.push(next);
            }
            table
        };
        let sel_buf = vec![0; f.params().n().limbs().len() + 1];
        let mut client = PointScanClient {
            curve: self,
            f,
            table,
            acc: None,
            gather: None,
            lanes,
            hardened,
            sel_buf,
        };
        run_windowed_scan(&mut client, lanes, &ks, window, hardened);
        let acc = client.acc.take();
        acc.unwrap_or_else(|| self.identity(f, lanes))
    }

    /// Converts every lane to affine plain coordinates with **one**
    /// field inversion for the whole batch (simultaneous inversion);
    /// `None` for identity lanes.
    pub fn to_affine<E: BatchMontMul>(
        &self,
        f: &mut BatchFieldCtx<E>,
        pts: &PointLanes,
    ) -> Vec<Option<(Ubig, Ubig)>> {
        let zinv = f.inv(&pts.z);
        // Substitute 1̄ on identity lanes so the batch keeps its shape;
        // those lanes are masked out of the result below.
        let zi: Vec<Fe> = zinv
            .iter()
            .map(|o| o.clone().unwrap_or_else(|| f.one_bar().clone()))
            .collect();
        let zi2 = f.sqr(&zi);
        let zi3 = f.mul(&zi2, &zi);
        let xm = f.mul(&pts.x, &zi2);
        let ym = f.mul(&pts.y, &zi3);
        let xs = f.from_mont(&xm);
        let ys = f.from_mont(&ym);
        zinv.iter()
            .zip(xs.into_iter().zip(ys))
            .map(|(inv, (x, y))| inv.as_ref().map(|_| (x, y)))
            .collect()
    }
}

/// The scan client for batched point multiplication: the accumulator
/// is a lane batch, "double" is a batched point doubling, "combine"
/// gathers each lane's table entry by its window digit and performs
/// one batched addition. Digit 0 gathers the identity, which the
/// patched add turns into a copy — the point analogue of multiplying
/// by 1̄ — and a lane whose accumulator equals its gathered entry is
/// doubled in the add's batched equal-points sub-batch. Every table
/// read goes through [`select_entry`], once per coordinate, so
/// hardened sessions sweep the full table exactly like the modexp
/// scan.
struct PointScanClient<'c, 'f, E: BatchMontMul> {
    curve: &'c BatchCurve,
    f: &'f mut BatchFieldCtx<E>,
    table: Vec<PointLanes>,
    acc: Option<PointLanes>,
    gather: Option<PointLanes>,
    lanes: usize,
    hardened: bool,
    sel_buf: Vec<Limb>,
}

impl<E: BatchMontMul> PointScanClient<'_, '_, E> {
    /// Lane `k` of the returned batch is `table[digits[k]]`'s lane `k`
    /// (reusing the previous gather's buffers when there is one).
    fn gather_digits(&mut self, digits: &[usize]) -> PointLanes {
        let mut g = self
            .gather
            .take()
            .unwrap_or_else(|| self.curve.identity(self.f, self.lanes));
        let (table, hardened, buf) = (&self.table, self.hardened, &mut self.sel_buf);
        for (k, &d) in digits.iter().enumerate() {
            let mut select = |coord: fn(&PointLanes) -> &[Fe], out: &mut Fe| {
                select_entry(table.len(), |i| &coord(&table[i])[k], d, hardened, buf, out)
            };
            select(|p| &p.x, &mut g.x[k]);
            select(|p| &p.y, &mut g.y[k]);
            select(|p| &p.z, &mut g.z[k]);
        }
        g
    }
}

impl<E: BatchMontMul> WindowScanClient for PointScanClient<'_, '_, E> {
    fn init(&mut self, digits: &[usize]) {
        if self.table.is_empty() {
            // Zero-length scalars: everything is [0]P = ∞.
            self.acc = Some(self.curve.identity(self.f, self.lanes));
            return;
        }
        self.acc = Some(self.gather_digits(digits));
    }

    fn double(&mut self) {
        let acc = self.acc.take().expect("init runs first");
        self.acc = Some(self.curve.double(self.f, &acc));
    }

    fn combine(&mut self, digits: &[usize]) {
        let g = self.gather_digits(digits);
        let acc = self.acc.take().expect("init runs first");
        self.acc = Some(self.curve.add(self.f, &acc, &g));
        self.gather = Some(g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::Curve;
    use crate::field::FieldCtx;
    use mmm_core::engine::EngineKind;
    use mmm_core::montgomery::MontgomeryParams;
    use mmm_core::traits::SoftwareEngine;

    /// GF(97), y² = x³ + 2x + 3, G = (3, 6) — the solo fixture.
    fn setup() -> (
        BatchFieldCtx<mmm_core::engine::AnyBatchEngine>,
        BatchCurve,
        FieldCtx<SoftwareEngine>,
        Curve,
        Point,
    ) {
        let params = MontgomeryParams::hardware_safe(&Ubig::from(97u64));
        let mut bf = BatchFieldCtx::new(EngineKind::Cios.build(params.clone()));
        let bc = BatchCurve::try_new(&mut bf, &Ubig::from(2u64), &Ubig::from(3u64)).unwrap();
        let mut sf = FieldCtx::new(SoftwareEngine::new(params));
        let sc = Curve::new(&mut sf, &Ubig::from(2u64), &Ubig::from(3u64));
        let g = sc.point(&mut sf, &Ubig::from(3u64), &Ubig::from(6u64));
        (bf, bc, sf, sc, g)
    }

    #[test]
    fn batch_coefficients_match_solo() {
        let (bf, bc, _, sc, _) = setup();
        let _ = bf;
        assert_eq!(bc.a, sc.a);
        assert_eq!(bc.b, sc.b);
    }

    #[test]
    fn singular_curve_is_a_typed_error() {
        let params = MontgomeryParams::hardware_safe(&Ubig::from(97u64));
        let mut bf = BatchFieldCtx::new(EngineKind::Cios.build(params));
        let err = BatchCurve::try_new(&mut bf, &Ubig::zero(), &Ubig::zero()).unwrap_err();
        assert!(matches!(err, MmmError::SingularCurve));
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn off_curve_lane_is_reported() {
        let (mut bf, bc, _, _, _) = setup();
        let pts = [
            (Ubig::from(3u64), Ubig::from(6u64)),
            (Ubig::from(3u64), Ubig::from(7u64)), // not on the curve
        ];
        let err = bc.try_points(&mut bf, &pts).unwrap_err();
        assert!(matches!(err, MmmError::PointNotOnCurve { lane: 1 }));
        assert!(err.to_string().contains("not on curve"));
    }

    #[test]
    fn batched_double_and_add_match_solo_lanes() {
        let (mut bf, bc, mut sf, sc, g) = setup();
        // Lanes: ∞, G, 2G, 3G, −G, a 2-torsion-free spread.
        let id = sc.identity(&mut sf);
        let g2 = sc.double(&mut sf, &g);
        let g3 = sc.add(&mut sf, &g2, &g);
        let (gx, gy) = sc.to_affine(&mut sf, &g).unwrap();
        let p = sf.p().clone();
        let neg = sc.point(&mut sf, &gx, &(&p - &gy));
        let pts = vec![id.clone(), g.clone(), g2.clone(), g3.clone(), neg.clone()];
        let lanes = PointLanes::from_points(&pts);

        let dbl = bc.double(&mut bf, &lanes);
        for (k, pt) in pts.iter().enumerate() {
            let want = sc.double(&mut sf, pt);
            assert_eq!(
                sc.to_affine(&mut sf, &dbl.lane(k)),
                sc.to_affine(&mut sf, &want),
                "double lane {k}"
            );
        }

        // Add the batch to splat(G): exercises identity (lane 0),
        // equal-points (lane 1) and inverse-points (lane 4) lanes.
        let gs = PointLanes::splat(&g, pts.len());
        let sum = bc.add(&mut bf, &lanes, &gs);
        for (k, pt) in pts.iter().enumerate() {
            let want = sc.add(&mut sf, pt, &g);
            assert_eq!(
                sc.to_affine(&mut sf, &sum.lane(k)),
                sc.to_affine(&mut sf, &want),
                "add lane {k}"
            );
        }
    }

    #[test]
    fn equal_lanes_are_doubled_in_one_batched_call() {
        // Lanes 0 and 2 add a point to itself, lane 1 is generic: the
        // add makes its own 16 engine calls plus one batched double of
        // the two equal lanes, whose coordinates are exactly the
        // batched double's.
        let params = MontgomeryParams::hardware_safe(&Ubig::from(97u64));
        let call = mmm_core::cost::mmm_cycles(params.l());
        let mut bf = BatchFieldCtx::new(EngineKind::BitSliced.build(params));
        let bc = BatchCurve::try_new(&mut bf, &Ubig::from(2u64), &Ubig::from(3u64)).unwrap();
        let (_, _, mut sf, sc, g) = setup();
        let g2 = sc.double(&mut sf, &g);
        let g3 = sc.add(&mut sf, &g, &g2);
        let p1 = PointLanes::from_points(&[g.clone(), g.clone(), g2.clone()]);
        let p2 = PointLanes::from_points(&[g.clone(), g2.clone(), g2.clone()]);
        let before = bf.engine().consumed_cycles().unwrap();
        let sum = bc.add(&mut bf, &p1, &p2);
        let calls = (bf.engine().consumed_cycles().unwrap() - before) / call;
        assert_eq!(calls as usize, ADD_FIELD_MULS + DOUBLE_FIELD_MULS);
        let doubled = bc.double(&mut bf, &PointLanes::from_points(&[g.clone(), g2]));
        assert_eq!(sum.lane(0), doubled.lane(0));
        assert_eq!(sum.lane(2), doubled.lane(1));
        assert_eq!(
            sc.to_affine(&mut sf, &sum.lane(1)),
            sc.to_affine(&mut sf, &g3)
        );
    }

    #[test]
    fn batched_scalar_mul_matches_solo_every_lane() {
        let (mut bf, bc, mut sf, sc, g) = setup();
        for lanes in [1usize, 3, 5] {
            let ks: Vec<Ubig> = (0..lanes as u64).map(|k| Ubig::from(3 * k + 1)).collect();
            let base = PointLanes::splat(&g, lanes);
            for window in [None, Some(1), Some(2), Some(4)] {
                let got = bc.scalar_mul(&mut bf, &ks, &base, window);
                for (k, kk) in ks.iter().enumerate() {
                    let want = sc.scalar_mul(&mut sf, kk, &g);
                    assert_eq!(
                        sc.to_affine(&mut sf, &got.lane(k)),
                        sc.to_affine(&mut sf, &want),
                        "lanes={lanes} window={window:?} lane {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_scalars_give_identity() {
        let (mut bf, bc, _, _, g) = setup();
        let ks = vec![Ubig::zero(); 3];
        let base = PointLanes::splat(&g, 3);
        let got = bc.scalar_mul(&mut bf, &ks, &base, None);
        let aff = bc.to_affine(&mut bf, &got);
        assert!(aff.iter().all(Option::is_none));
    }

    #[test]
    fn batched_affine_matches_solo() {
        let (mut bf, bc, mut sf, sc, g) = setup();
        let id = sc.identity(&mut sf);
        let g2 = sc.double(&mut sf, &g);
        let pts = vec![g.clone(), id, g2];
        let lanes = PointLanes::from_points(&pts);
        let aff = bc.to_affine(&mut bf, &lanes);
        for (k, pt) in pts.iter().enumerate() {
            assert_eq!(aff[k], sc.to_affine(&mut sf, pt), "lane {k}");
        }
    }

    #[test]
    fn contains_flags_lanes_correctly() {
        let (mut bf, bc, mut sf, sc, g) = setup();
        let id = sc.identity(&mut sf);
        let mut lanes = PointLanes::from_points(&[g.clone(), id, g.clone()]);
        // Corrupt lane 2's X coordinate.
        lanes.x[2] = bf.to_mont(&[Ubig::from(5u64)])[0].clone();
        let on = bc.contains(&mut bf, &lanes);
        assert_eq!(on, vec![true, true, false]);
    }
}
