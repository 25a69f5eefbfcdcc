//! Radix-2⁶⁴ CIOS (coarsely-integrated operand scanning) Montgomery
//! multiplication — the word-serial production backend, with the
//! bit-serial systolic simulation retained as its fidelity oracle.
//!
//! ## Same contract, different radix
//!
//! The paper's array fixes radix `r = 2`: one operand **bit** per wave,
//! `N' = 1`, `R = 2^{l+2}`, and `~l²` single-bit cell updates per
//! multiplication. The follow-on literature (Zhang et al.,
//! arXiv:2407.12701; Meng, arXiv:1609.00999) shows the identical
//! dependence structure scales to high radix: consume one operand
//! **word** per scan step, replace the bit-level quotient `m_i = t_0 ⊕
//! x_i y_0` with the word-level `m_i = t_0 · n0' mod 2⁶⁴` (`n0' = -N⁻¹
//! mod 2⁶⁴`), and each step becomes two length-`s` multiply-accumulate
//! passes — `~2·(l/64)²` u64 MACs per multiplication instead of `~l²`
//! bit-cell updates.
//!
//! Crucially, these engines implement the **same mathematical function**
//! as Algorithm 2 — `T = (x·y + M·N)/2^{l+2}` with `M = x·y·(-N⁻¹) mod
//! 2^{l+2}` — not the word-domain variant with `R_w = 2^{64s}`. A
//! Montgomery reduction by `2^{l+2}` factors into `⌊(l+2)/64⌋` full-word
//! CIOS steps plus one final partial reduction by the remaining `(l+2)
//! mod 64` bits (the total quotient `M < 2^{l+2}` is *unique*, so any
//! factoring of the shift yields the identical integer). The result is
//! therefore **bit-identical** to the bit-sliced array
//! ([`crate::batch`]) and every other Algorithm-2 engine, lane for lane, including the
//! non-canonical `< 2N` representative — which is what lets the
//! backend-dispatch layer ([`crate::engine`]) swap engines under every
//! entry point with no domain conversions and no behavioural change.
//! (The word-domain view and the explicit conversions between the two
//! Montgomery domains live on
//! [`MontgomeryParams::word_domain`][crate::montgomery::MontgomeryParams::word_domain].)
//!
//! ## Batch layout
//!
//! The batch datapath (built with `EngineKind::Cios.build(params)`
//! and driven by the shared [`crate::engine::AnyBatchEngine`] shell)
//! advances up to 64 independent multiplications per call in a
//! **struct-of-arrays** lane layout: `lanes × limbs` with the
//! lane index contiguous (`t[j·64 + k]` is limb `j` of lane `k`), so
//! the inner MAC loop at fixed limb `j` is a unit-stride scan over
//! lanes with **independent per-lane carries** — no carry chain crosses
//! lanes, which is what lets LLVM auto-vectorize it. Like the
//! bit-sliced engine, the hot loop is a free function over `noalias`
//! slice parameters and the whole path is allocation-free once warm.
//!
//! ## Constant-time status
//!
//! The scan itself has a fixed schedule: no final subtraction (the
//! Walter bound keeps results `< 2N`), no data-dependent branches, and
//! a memory access pattern that depends only on `(l, lanes)` — the
//! quotient words `m` feed multiplies, never indexing. Under
//! [`HardeningMode::Hardened`](crate::config::HardeningMode::Hardened)
//! the engine shell appends a **branchless
//! canonicalizing final subtraction** (`cond_sub_rows`): two fixed
//! passes over the SoA accumulator (a borrow chain to decide `t ≥ N`
//! per lane, a masked subtraction to apply it), so outputs are `< N`
//! with a schedule independent of the values. The exponentiation-layer
//! leaks (secret-indexed power-table loads) are closed separately in
//! [`crate::expo_batch`]; DESIGN.md §12 has the full per-path table.

use crate::batch::{row, row_mut, LaneRow, MAX_LANES};
use crate::montgomery::MontgomeryParams;
use crate::traits::MontMul;
use mmm_bigint::ct::sbb_ct;
use mmm_bigint::limbs::{adc, carrying_mul, mac_with_carry, Limb, LIMB_BITS};
use mmm_bigint::transpose::{lanes_to_limbs_into, limbs_to_lanes_into};
use mmm_bigint::Ubig;

/// Shared per-width geometry of the radix-2⁶⁴ scan over `R = 2^{l+2}`.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    /// Operand/result limb count `s = ⌈(l+2)/64⌉`.
    sw: usize,
    /// Number of full 64-bit reduction steps `⌊(l+2)/64⌋`.
    full: usize,
    /// Remaining shift `(l+2) mod 64` handled by the partial step.
    rem: u32,
    /// `n0' = -N⁻¹ mod 2⁶⁴`.
    n0_inv: Limb,
}

impl Geometry {
    fn of(params: &MontgomeryParams) -> Self {
        let k = params.l() + 2;
        Geometry {
            sw: k.div_ceil(LIMB_BITS),
            full: k / LIMB_BITS,
            rem: (k % LIMB_BITS) as u32,
            n0_inv: params.word_n0_inv(),
        }
    }

    fn padded_modulus(&self, params: &MontgomeryParams) -> Vec<Limb> {
        let mut n = params.n().limbs().to_vec();
        n.resize(self.sw, 0);
        n
    }
}

/// Scalar radix-2⁶⁴ CIOS engine: the solo-path counterpart of
/// the batch datapath, bit-identical to every Algorithm-2 engine.
#[derive(Debug, Clone)]
pub struct CiosMont {
    params: MontgomeryParams,
    geo: Geometry,
    /// Modulus padded to `sw` limbs.
    n: Vec<Limb>,
    /// Reusable operand/accumulator buffers (`sw`, `sw`, `sw + 2`).
    x: Vec<Limb>,
    y: Vec<Limb>,
    t: Vec<Limb>,
}

impl CiosMont {
    /// Creates the engine. Unlike the systolic-array engines this one
    /// has no hardware-safety requirement: it is a software scan, so
    /// any valid `MontgomeryParams` (e.g. `tight` widths) works.
    pub fn new(params: MontgomeryParams) -> Self {
        let geo = Geometry::of(&params);
        CiosMont {
            n: geo.padded_modulus(&params),
            x: vec![0; geo.sw],
            y: vec![0; geo.sw],
            t: vec![0; geo.sw + 2],
            params,
            geo,
        }
    }
}

impl MontMul for CiosMont {
    fn params(&self) -> &MontgomeryParams {
        &self.params
    }

    fn mont_mul(&mut self, x: &Ubig, y: &Ubig) -> Ubig {
        assert!(
            self.params.check_operand(x) && self.params.check_operand(y),
            "operands must be < 2N"
        );
        load_padded(x, &mut self.x);
        load_padded(y, &mut self.y);
        self.t.fill(0);
        run_cios_scalar(self.geo, &self.n, &self.x, &self.y, &mut self.t);
        let out = Ubig::from_limbs(self.t[..self.geo.sw].to_vec());
        debug_assert!(self.params.check_operand(&out), "Walter bound violated");
        out
    }

    fn name(&self) -> &'static str {
        "radix-2^64 CIOS (scalar)"
    }
}

/// Copies `v`'s limbs into `buf`, zero-padding to `buf.len()`.
fn load_padded(v: &Ubig, buf: &mut [Limb]) {
    let limbs = v.limbs();
    buf[..limbs.len()].copy_from_slice(limbs);
    buf[limbs.len()..].fill(0);
}

/// One full scalar scan: `full` word-level CIOS steps, then the
/// partial `rem`-bit reduction. On return `t[..sw]` holds the
/// Algorithm-2 result and `t[sw..]` is zero.
fn run_cios_scalar(geo: Geometry, n: &[Limb], x: &[Limb], y: &[Limb], t: &mut [Limb]) {
    let sw = geo.sw;
    for &xi in x.iter().take(geo.full) {
        // t += x_i · y
        let mut carry = 0;
        for j in 0..sw {
            let (lo, hi) = mac_with_carry(xi, y[j], t[j], carry);
            t[j] = lo;
            carry = hi;
        }
        let (sum, c) = adc(t[sw], carry, false);
        t[sw] = sum;
        t[sw + 1] = c as Limb;
        // m = t_0 · n0' mod 2⁶⁴ ; t = (t + m·N) / 2⁶⁴
        let m = t[0].wrapping_mul(geo.n0_inv);
        let (zero, mut hi) = carrying_mul(m, n[0], t[0]);
        debug_assert_eq!(zero, 0, "low word must cancel");
        for j in 1..sw {
            let (lo, h) = mac_with_carry(m, n[j], t[j], hi);
            t[j - 1] = lo;
            hi = h;
        }
        let (sum, c) = adc(t[sw], hi, false);
        t[sw - 1] = sum;
        t[sw] = t[sw + 1] + c as Limb;
        t[sw + 1] = 0;
    }
    if geo.rem > 0 {
        // Top partial operand word (bits 64·full and up of x), then
        // the final reduction by 2^rem: m is the unique value < 2^rem
        // making t divisible (n0' mod 2^rem is -N⁻¹ mod 2^rem).
        let xf = x[geo.full];
        let mut carry = 0;
        for j in 0..sw {
            let (lo, hi) = mac_with_carry(xf, y[j], t[j], carry);
            t[j] = lo;
            carry = hi;
        }
        let (sum, c) = adc(t[sw], carry, false);
        t[sw] = sum;
        t[sw + 1] += c as Limb;

        let mask = (1u64 << geo.rem) - 1;
        let m = t[0].wrapping_mul(geo.n0_inv) & mask;
        let mut carry = 0;
        for (j, &nj) in n.iter().enumerate() {
            let (lo, hi) = mac_with_carry(m, nj, t[j], carry);
            t[j] = lo;
            carry = hi;
        }
        let (sum, c) = adc(t[sw], carry, false);
        t[sw] = sum;
        t[sw + 1] += c as Limb;
        debug_assert_eq!(t[0] & mask, 0, "low bits must cancel");

        for j in 0..=sw {
            t[j] = (t[j] >> geo.rem) | (t[j + 1] << (LIMB_BITS as u32 - geo.rem));
        }
        t[sw + 1] >>= geo.rem;
    }
    debug_assert_eq!(t[sw], 0, "result exceeds s limbs");
    debug_assert_eq!(t[sw + 1], 0, "result exceeds s limbs");
}

/// The radix-2⁶⁴ CIOS datapath behind [`EngineKind::Cios`]: up to 64
/// independent Montgomery multiplications per batch in
/// struct-of-arrays lane layout, driven through its load/run/store
/// stages by the [`AnyBatchEngine`] shell and bit-identical to the
/// bit-sliced array.
///
/// [`EngineKind::Cios`]: crate::engine::EngineKind::Cios
/// [`AnyBatchEngine`]: crate::engine::AnyBatchEngine
#[derive(Debug, Clone)]
pub(crate) struct CiosDatapath {
    geo: Geometry,
    /// Modulus padded to `sw` limbs (shared by every lane).
    n: Vec<Limb>,
    /// SoA operands: `x[j·64 + k]` is limb `j` of lane `k`.
    x: Vec<Limb>,
    y: Vec<Limb>,
    /// SoA accumulator, `sw + 2` limb rows.
    t: Vec<Limb>,
}

impl CiosDatapath {
    /// Allocates the limb rows for `params`. Like [`CiosMont`] (and
    /// unlike the array) any valid parameters are accepted — there is
    /// no carry cell to overflow in a word-level scan.
    pub(crate) fn new(params: &MontgomeryParams) -> Self {
        let geo = Geometry::of(params);
        CiosDatapath {
            n: geo.padded_modulus(params),
            x: vec![0; geo.sw * MAX_LANES],
            y: vec![0; geo.sw * MAX_LANES],
            t: vec![0; (geo.sw + 2) * MAX_LANES],
            geo,
        }
    }

    /// Transposes a validated batch into limb rows and clears the
    /// accumulator.
    pub(crate) fn load(&mut self, xs: &[Ubig], ys: &[Ubig]) {
        lanes_to_limbs_into(xs, self.geo.sw, MAX_LANES, &mut self.x);
        lanes_to_limbs_into(ys, self.geo.sw, MAX_LANES, &mut self.y);
        self.t.fill(0);
    }

    /// Runs the word scan on the loaded batch.
    pub(crate) fn run(&mut self) {
        run_cios_batch(self.geo, &self.n, &self.x, &self.y, &mut self.t);
    }

    /// Canonicalizes every lane of the result `< N` in place.
    pub(crate) fn cond_sub(&mut self) {
        cond_sub_rows(&self.n, &mut self.t, self.geo.sw);
    }

    /// Gathers the first `lanes` results into `out`, recycling its limb
    /// buffers.
    pub(crate) fn store(&self, lanes: usize, out: &mut Vec<Ubig>) {
        let sw = self.geo.sw;
        limbs_to_lanes_into(&self.t[..sw * MAX_LANES], sw, MAX_LANES, lanes, out);
    }
}

/// `t[k] += a[k]·b[k] + carry[k]` across all 64 lanes of one limb
/// row, with per-lane carries — the batch MAC primitive.
#[inline(always)]
fn lane_mac(a: &LaneRow, b: &LaneRow, t: &mut LaneRow, carry: &mut LaneRow) {
    for k in 0..MAX_LANES {
        let (lo, hi) = mac_with_carry(a[k], b[k], t[k], carry[k]);
        t[k] = lo;
        carry[k] = hi;
    }
}

/// [`lane_mac`] with a lane-shared multiplicand (the modulus word,
/// identical in every lane).
#[inline(always)]
fn lane_mac_bcast(a: &LaneRow, b: Limb, t: &mut LaneRow, carry: &mut LaneRow) {
    for k in 0..MAX_LANES {
        let (lo, hi) = mac_with_carry(a[k], b, t[k], carry[k]);
        t[k] = lo;
        carry[k] = hi;
    }
}

/// The full SoA scan (see the module docs): `full` word steps plus the
/// partial reduction, all 64 lanes in lockstep. A free function over
/// slice parameters on purpose — parameter-level `&`/`&mut` carry
/// `noalias` into LLVM so the lane loops vectorize (mirroring
/// `batch::run_wave`).
#[inline(never)]
fn run_cios_batch(geo: Geometry, n: &[Limb], x: &[Limb], y: &[Limb], t: &mut [Limb]) {
    let sw = geo.sw;
    let mut carry: LaneRow = [0; MAX_LANES];
    let mut m: LaneRow = [0; MAX_LANES];

    for i in 0..geo.full {
        // t += x_i ⊙ y (lane-wise), accumulating into rows 0..=sw+1.
        let xi = row(x, i);
        carry.fill(0);
        for j in 0..sw {
            // Split borrows: y row j is disjoint from t row j.
            lane_mac(xi, row(y, j), row_mut(t, j), &mut carry);
        }
        {
            let (t_sw, t_top) = t[sw * MAX_LANES..].split_at_mut(MAX_LANES);
            for k in 0..MAX_LANES {
                let (sum, c) = adc(t_sw[k], carry[k], false);
                t_sw[k] = sum;
                t_top[k] = c as Limb;
            }
        }

        // m = t_0 ⊙ n0' ; t = (t + m·N) / 2⁶⁴ (one-row shift-down).
        for k in 0..MAX_LANES {
            m[k] = t[k].wrapping_mul(geo.n0_inv);
        }
        {
            let t0 = row_mut(t, 0);
            for k in 0..MAX_LANES {
                let (zero, hi) = carrying_mul(m[k], n[0], t0[k]);
                debug_assert_eq!(zero, 0, "low word must cancel");
                carry[k] = hi;
            }
        }
        for j in 1..sw {
            // Row j-1 is written while row j is read: split the borrow
            // at the row boundary so both are live at once.
            let (left, right) = t.split_at_mut(j * MAX_LANES);
            let out_row: &mut LaneRow = (&mut left[(j - 1) * MAX_LANES..])
                .try_into()
                .expect("row is exactly MAX_LANES wide");
            let tj: &LaneRow = right[..MAX_LANES]
                .try_into()
                .expect("row is exactly MAX_LANES wide");
            let nj = n[j];
            for k in 0..MAX_LANES {
                let (lo, hi) = mac_with_carry(m[k], nj, tj[k], carry[k]);
                out_row[k] = lo;
                carry[k] = hi;
            }
        }
        {
            let (t_mid, rest) = t[(sw - 1) * MAX_LANES..].split_at_mut(MAX_LANES);
            let (t_sw, t_top) = rest.split_at_mut(MAX_LANES);
            for k in 0..MAX_LANES {
                let (sum, c) = adc(t_sw[k], carry[k], false);
                t_mid[k] = sum;
                t_sw[k] = t_top[k] + c as Limb;
                t_top[k] = 0;
            }
        }
    }

    if geo.rem > 0 {
        // Top partial operand word, then the final 2^rem reduction.
        let xf = row(x, geo.full);
        carry.fill(0);
        for j in 0..sw {
            lane_mac(xf, row(y, j), row_mut(t, j), &mut carry);
        }
        {
            let (t_sw, t_top) = t[sw * MAX_LANES..].split_at_mut(MAX_LANES);
            for k in 0..MAX_LANES {
                let (sum, c) = adc(t_sw[k], carry[k], false);
                t_sw[k] = sum;
                t_top[k] += c as Limb;
            }
        }

        let mask = (1u64 << geo.rem) - 1;
        for k in 0..MAX_LANES {
            m[k] = t[k].wrapping_mul(geo.n0_inv) & mask;
        }
        carry.fill(0);
        for (j, &nj) in n.iter().enumerate() {
            lane_mac_bcast(&m, nj, row_mut(t, j), &mut carry);
        }
        {
            let (t_sw, t_top) = t[sw * MAX_LANES..].split_at_mut(MAX_LANES);
            for k in 0..MAX_LANES {
                let (sum, c) = adc(t_sw[k], carry[k], false);
                t_sw[k] = sum;
                t_top[k] += c as Limb;
            }
        }
        debug_assert!(
            (0..MAX_LANES).all(|k| t[k] & mask == 0),
            "low bits must cancel"
        );

        // Lane-wise right shift by rem bits across all sw+2 rows.
        let shift_up = LIMB_BITS as u32 - geo.rem;
        for j in 0..=sw {
            let upper = *row(t, j + 1);
            let cur = row_mut(t, j);
            for k in 0..MAX_LANES {
                cur[k] = (cur[k] >> geo.rem) | (upper[k] << shift_up);
            }
        }
        let top = row_mut(t, sw + 1);
        for v in top.iter_mut() {
            *v >>= geo.rem;
        }
    }

    debug_assert!(
        t[sw * MAX_LANES..].iter().all(|&v| v == 0),
        "result exceeds s limbs"
    );
}

/// The branchless canonicalizing final subtraction over a word-SoA
/// accumulator: for every lane `k`, subtracts the (lane-shared,
/// `rows`-limb padded) modulus `n` from `t[·,k]` exactly when
/// `t[·,k] ≥ N` — deciding with one full borrow chain and applying
/// with one masked subtraction, so both passes execute the same
/// instruction trace whatever the lane values are (the
/// [`mmm_bigint::ct`] discipline, vectorized across lanes).
///
/// Entry values obey the Walter bound (`< 2N`), so one conditional
/// subtraction lands every lane in `[0, N)`. Allocation-free: two
/// stack [`LaneRow`]s of per-lane borrow/mask state.
#[inline(never)]
pub(crate) fn cond_sub_rows(n: &[Limb], t: &mut [Limb], rows: usize) {
    // Pass 1: full borrow chain per lane — t < N iff it borrows out.
    let mut borrow: LaneRow = [0; MAX_LANES];
    for (j, &nj) in n.iter().enumerate().take(rows) {
        let tj = row(t, j);
        for k in 0..MAX_LANES {
            let (_, b) = sbb_ct(tj[k], nj, borrow[k]);
            borrow[k] = b;
        }
    }
    // borrow = 0 → t ≥ N → all-ones mask (two's-complement decrement).
    let mut mask: LaneRow = [0; MAX_LANES];
    for k in 0..MAX_LANES {
        mask[k] = borrow[k].wrapping_sub(1);
    }
    // Pass 2: recompute the subtraction with the modulus masked to
    // zero in lanes that keep their value — same trace either way.
    borrow = [0; MAX_LANES];
    for (j, &nj) in n.iter().enumerate().take(rows) {
        let tj = row_mut(t, j);
        for k in 0..MAX_LANES {
            let (d, b) = sbb_ct(tj[k], nj & mask[k], borrow[k]);
            tj[k] = d;
            borrow[k] = b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HardeningMode;
    use crate::engine::EngineKind;
    use crate::modgen::{random_operand, random_safe_params};
    use crate::montgomery::mont_mul_alg2;
    use crate::traits::BatchMontMul;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scalar_cios_is_bit_identical_to_alg2_exhaustive_small() {
        // N = 13, l = 4 (full = 0, rem = 6): every x, y < 2N, and the
        // non-canonical < 2N representative must match exactly.
        let p = MontgomeryParams::new(&Ubig::from(13u64), 4);
        let mut e = CiosMont::new(p.clone());
        for x in 0u64..26 {
            for y in 0u64..26 {
                let got = e.mont_mul(&Ubig::from(x), &Ubig::from(y));
                let want = mont_mul_alg2(&p, &Ubig::from(x), &Ubig::from(y));
                assert_eq!(got, want, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn scalar_cios_matches_alg2_across_widths() {
        // Widths straddling the word boundary on both k = l + 2 and
        // the operand length, including rem = 0 (l = 62, 126).
        let mut rng = StdRng::seed_from_u64(501);
        for l in [3usize, 30, 61, 62, 63, 64, 65, 66, 126, 127, 128, 200] {
            let p = random_safe_params(&mut rng, l);
            let mut e = CiosMont::new(p.clone());
            for _ in 0..20 {
                let x = random_operand(&mut rng, &p);
                let y = random_operand(&mut rng, &p);
                assert_eq!(e.mont_mul(&x, &y), mont_mul_alg2(&p, &x, &y), "l={l}");
            }
        }
    }

    #[test]
    fn scalar_cios_accepts_tight_widths() {
        // No hardware-safety requirement: tight params where the array
        // engines would overflow their leftmost carry cell.
        let n = Ubig::from(0xFFFF_FFFF_FFFF_FFC5u64); // ≈ 2^64: not safe at l=64
        let p = MontgomeryParams::tight(&n);
        assert!(!p.is_hardware_safe());
        let mut e = CiosMont::new(p.clone());
        let mut rng = StdRng::seed_from_u64(502);
        for _ in 0..10 {
            let x = random_operand(&mut rng, &p);
            let y = random_operand(&mut rng, &p);
            assert_eq!(e.mont_mul(&x, &y), mont_mul_alg2(&p, &x, &y));
        }
    }

    #[test]
    fn batch_cios_every_lane_matches_alg2() {
        let mut rng = StdRng::seed_from_u64(503);
        for l in [3usize, 8, 31, 62, 63, 64, 65, 130] {
            let p = random_safe_params(&mut rng, l);
            let lanes = 64.min(2 * l);
            let xs: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let ys: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let mut batch = EngineKind::Cios.build(p.clone());
            let got = batch.mont_mul_batch(&xs, &ys);
            for k in 0..lanes {
                assert_eq!(
                    got[k],
                    mont_mul_alg2(&p, &xs[k], &ys[k]),
                    "lane {k} diverged at l={l}"
                );
            }
        }
    }

    #[test]
    fn batch_cios_partial_batches_and_reuse() {
        let mut rng = StdRng::seed_from_u64(504);
        let p = random_safe_params(&mut rng, 48);
        let mut batch = EngineKind::Cios.build(p.clone());
        for lanes in [1usize, 3, 63, 64] {
            let xs: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let ys: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let got = batch.mont_mul_batch(&xs, &ys);
            assert_eq!(got.len(), lanes);
            for k in 0..lanes {
                assert_eq!(
                    got[k],
                    mont_mul_alg2(&p, &xs[k], &ys[k]),
                    "lanes={lanes} k={k}"
                );
            }
        }
    }

    #[test]
    fn batch_cios_outputs_feed_back_as_inputs() {
        // The Algorithm-2 closure property on the batch path.
        let mut rng = StdRng::seed_from_u64(505);
        let p = random_safe_params(&mut rng, 70);
        let mut batch = EngineKind::Cios.build(p.clone());
        let xs: Vec<Ubig> = (0..16).map(|_| random_operand(&mut rng, &p)).collect();
        let mut a = batch.mont_mul_batch(&xs, &xs);
        let mut want: Vec<Ubig> = xs.iter().map(|x| mont_mul_alg2(&p, x, x)).collect();
        for round in 0..4 {
            a = batch.mont_mul_batch(&a, &a);
            want = want.iter().map(|v| mont_mul_alg2(&p, v, v)).collect();
            assert_eq!(a, want, "round {round}");
        }
    }

    #[test]
    fn hardened_batch_outputs_are_canonical_residues() {
        let mut rng = StdRng::seed_from_u64(508);
        for l in [3usize, 30, 62, 63, 64, 65, 130] {
            let p = random_safe_params(&mut rng, l);
            let lanes = 64.min(2 * l);
            let xs: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let ys: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let mut batch = EngineKind::Cios.build(p.clone());
            batch.set_hardening(HardeningMode::Hardened);
            assert_eq!(batch.hardening(), HardeningMode::Hardened);
            let got = batch.mont_mul_batch(&xs, &ys);
            for k in 0..lanes {
                let want = mont_mul_alg2(&p, &xs[k], &ys[k]).rem(p.n());
                assert_eq!(got[k], want, "lane {k} at l={l}");
                assert!(got[k] < *p.n(), "lane {k} not canonical at l={l}");
            }
            // Switching back restores the raw < 2N contract.
            batch.set_hardening(HardeningMode::Off);
            let raw = batch.mont_mul_batch(&xs, &ys);
            for k in 0..lanes {
                assert_eq!(raw[k], mont_mul_alg2(&p, &xs[k], &ys[k]), "lane {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 lanes")]
    fn batch_cios_rejects_oversized_batch() {
        let mut rng = StdRng::seed_from_u64(506);
        let p = random_safe_params(&mut rng, 8);
        let xs: Vec<Ubig> = (0..65).map(|_| random_operand(&mut rng, &p)).collect();
        let ys = xs.clone();
        let _ = EngineKind::Cios.build(p).mont_mul_batch(&xs, &ys);
    }

    #[test]
    #[should_panic(expected = "operands must be < 2N")]
    fn batch_cios_rejects_out_of_range_operand() {
        let mut rng = StdRng::seed_from_u64(507);
        let p = random_safe_params(&mut rng, 8);
        let bad = p.two_n();
        let _ = EngineKind::Cios
            .build(p.clone())
            .mont_mul_batch(std::slice::from_ref(&bad), std::slice::from_ref(&bad));
    }
}
