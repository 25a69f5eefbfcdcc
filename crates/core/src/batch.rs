//! Bit-sliced batch engine: up to 64 **independent** Montgomery
//! multiplications advancing in lockstep, one cell equation pass per
//! simulated clock cycle.
//!
//! [`crate::wave_packed::PackedMmmc`] packs 64 *cells of one
//! multiplication* into each `u64`; this engine transposes the layout
//! and packs *the same cell of 64 multiplications* instead: `t[j]`,
//! `c0[j]` and `c1[j]` are each a single `u64` whose bit `k` belongs
//! to lane `k`. The lane dimension then rides the machine word for
//! free: the cell recurrences become straight-line word ops over
//! position `j` with **no carry chains between words** — the
//! neighbour wiring (`t_{j+1}`, `c_{j-1}`) is array indexing, not
//! sub-word shifting — and the edge cells are ordinary lane-word
//! expressions, no scalar bit patching.
//!
//! ## The wave band
//!
//! Every dependency of cell `j` at cycle `τ` (digit from `j+1`,
//! carries from `j-1`, all latched one cycle earlier) preserves the
//! **wave coordinate** `σ = τ − j`. The array therefore decomposes
//! into independent diagonal waves, and only waves with `σ` even and
//! `0 ≤ σ/2 ≤ l+1` ever have their T-writes enabled by the valid
//! pipeline — odd-`σ` state is a dead lattice and `σ/2 > l+1` waves
//! are the drain junk the valid bit exists to suppress. The simulator
//! exploits this analytically instead of replaying it:
//!
//! * per cycle it touches only the live band
//!   `j ∈ [max(1, τ−2l−2), min(l, τ)]`, `j ≡ τ (mod 2)` — ~`l²`
//!   position updates per multiplication instead of the packed
//!   model's `3l²`;
//! * the `xp`/`vp` pipelines collapse into closed form (`xp[j]` at
//!   cycle `τ` is operand bit `(τ−j)/2`; the enable is identically 1
//!   inside the band), and the `mp` pipeline becomes `m_even`, a
//!   history of the rightmost cell's `m` outputs indexed by wave;
//! * updates are in place: within a cycle, writes land on live-parity
//!   slots while reads come from opposite-parity slots, so no double
//!   buffering and no pipeline shifting at all.
//!
//! All 64 lanes share the modulus `N` (the multi-user serving shape:
//! one key, many requests) but have independent `x`/`y` operands. The
//! hot loop is allocation-free: every buffer lives in the datapath and
//! is reused across batches, in the same spirit as
//! [`crate::wave_packed::PackedWaveArray::step`].
//!
//! This module holds the datapath only — bit planes, transposition,
//! the wave kernel and the bit-row canonicalizing subtraction. The
//! engine around it (validation, hardening, the `3l + 4` cycle count,
//! [`BatchMontMul`]) is the one shell every backend shares,
//! [`crate::engine::AnyBatchEngine`], built with
//! `EngineKind::BitSliced.build(params)`.
//!
//! Lane-for-lane, results are bit-identical to a solo
//! [`crate::wave_packed::PackedMmmc`] run — asserted by the module
//! tests and by `tests/batch_engine.rs` at the workspace root. For
//! workloads wider than 64 lanes, [`try_mont_mul_many`] shards across
//! engines with rayon.

use crate::config::EngineConfig;
use crate::error::{MmmError, OperandBound};
use crate::montgomery::MontgomeryParams;
use crate::pool;
use crate::traits::{BatchMontMul, MontMul};
use mmm_bigint::limbs::Limb;
use mmm_bigint::transpose::{lanes_to_slices_into, slices_to_lanes_into};
use mmm_bigint::Ubig;

/// Lanes one engine advances per simulated cycle (bits in a word).
pub const MAX_LANES: usize = 64;

/// A lane row of the word-per-lane SoA state the radix-2⁶⁴ and
/// radix-2⁵² datapaths share (`soa[j·64 + k]` is row `j`, lane `k`):
/// fixed-size so per-lane loops have a compile-time trip count.
pub(crate) type LaneRow = [Limb; MAX_LANES];

/// Borrows row `j` of an SoA buffer as a fixed-size lane row.
#[inline(always)]
pub(crate) fn row(soa: &[Limb], j: usize) -> &LaneRow {
    soa[j * MAX_LANES..(j + 1) * MAX_LANES]
        .try_into()
        .expect("row is exactly MAX_LANES wide")
}

/// Mutable variant of [`row`].
#[inline(always)]
pub(crate) fn row_mut(soa: &mut [Limb], j: usize) -> &mut LaneRow {
    (&mut soa[j * MAX_LANES..(j + 1) * MAX_LANES])
        .try_into()
        .expect("row is exactly MAX_LANES wide")
}

/// The bit-sliced datapath behind [`EngineKind::BitSliced`]: the
/// engine's native bit-plane buffers plus the load/run/store stages the
/// [`AnyBatchEngine`] shell drives. State layout: every vector has
/// `l + 2` positions (the systolic array's digit positions), each a
/// lane word.
///
/// [`EngineKind::BitSliced`]: crate::engine::EngineKind::BitSliced
/// [`AnyBatchEngine`]: crate::engine::AnyBatchEngine
#[derive(Debug, Clone)]
pub(crate) struct BitSlicedDatapath {
    l: usize,
    /// Modulus broadcast: `n_pos[j]` is all-ones iff bit `j` of `N` is
    /// set (every lane shares `N`).
    n_pos: Vec<u64>,
    /// Transposed operands for the current batch.
    x_pos: Vec<u64>,
    y_pos: Vec<u64>,
    // Array registers, transposed (slot j = cell j, bit k = lane k).
    t: Vec<u64>,
    c0: Vec<u64>,
    c1: Vec<u64>,
    /// `m_even[u]` is the rightmost cell's `m` lane word from cycle
    /// `2u` — the only `m` values the live wave lattice ever consumes.
    m_even: Vec<u64>,
}

impl BitSlicedDatapath {
    /// Allocates the bit planes for `params`. The hardware-safety
    /// contract of the array is checked by the caller
    /// ([`crate::engine::EngineKind::ensure_supports`]).
    pub(crate) fn new(params: &MontgomeryParams) -> Self {
        let l = params.l();
        let w = l + 2;
        let mut n_pos = vec![0u64; w];
        for (j, slot) in n_pos.iter_mut().enumerate().take(l) {
            if params.n().bit(j) {
                *slot = u64::MAX;
            }
        }
        BitSlicedDatapath {
            l,
            n_pos,
            x_pos: vec![0; w],
            y_pos: vec![0; w],
            t: vec![0; w],
            c0: vec![0; w],
            c1: vec![0; w],
            m_even: vec![0; w],
        }
    }

    /// Transposes a validated batch of operands into bit planes and
    /// clears the array registers.
    pub(crate) fn load(&mut self, xs: &[Ubig], ys: &[Ubig]) {
        let w = self.l + 2;
        lanes_to_slices_into(xs, w, &mut self.x_pos);
        lanes_to_slices_into(ys, w, &mut self.y_pos);
        self.t.fill(0);
        self.c0.fill(0);
        self.c1.fill(0);
        self.m_even.fill(0);
    }

    /// Runs the `3l + 4`-cycle wave-band simulation on the loaded
    /// batch (the batch dimension is free).
    pub(crate) fn run(&mut self) {
        run_wave(
            self.l,
            &self.x_pos,
            &self.y_pos,
            &self.n_pos,
            &mut self.t,
            &mut self.c0,
            &mut self.c1,
            &mut self.m_even,
        );
    }

    /// Canonicalizes every lane of the result `< N` in place.
    pub(crate) fn cond_sub(&mut self) {
        cond_sub_bitsliced(self.l, &self.n_pos, &mut self.t);
    }

    /// Transposes the first `lanes` results back into `out`, recycling
    /// its limb buffers.
    pub(crate) fn store(&self, lanes: usize, out: &mut Vec<Ubig>) {
        slices_to_lanes_into(&self.t[1..=self.l + 1], lanes, out);
    }
}

/// The full `3l + 3`-step wave-band simulation (see the module docs):
/// per cycle, only the live diagonal band of cells is evaluated, in
/// place. A free function on slice parameters on purpose:
/// parameter-level `&`/`&mut` references carry `noalias` guarantees
/// into LLVM, which is what lets the band loop auto-vectorize (as
/// field borrows inside a method the buffers are mutually unprovable
/// aliases and the vectorizer gives up).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn run_wave(
    l: usize,
    x_pos: &[u64],
    y: &[u64],
    n: &[u64],
    t: &mut [u64],
    c0: &mut [u64],
    c1: &mut [u64],
    m_even: &mut [u64],
) {
    // Explicit common length so every index below is provably in
    // bounds (band j ≤ l, wave index (τ−j)/2 ≤ l+1 < w).
    let w = l + 2;
    let (x_pos, y, n) = (&x_pos[..w], &y[..w], &n[..w]);
    let t = &mut t[..w];
    let c0 = &mut c0[..w];
    let c1 = &mut c1[..w];
    let m_even = &mut m_even[..w];

    for tau in 0..=(3 * l + 2) {
        // Rightmost cell (position 0): derives m from T feedback and
        // seeds the first carry. Only its even-cycle outputs are ever
        // consumed by the live lattice, and only while operand bits
        // are still being injected.
        if tau % 2 == 0 && tau / 2 <= l + 1 {
            let xy0 = x_pos[tau / 2] & y[0];
            m_even[tau / 2] = t[1] ^ xy0;
            c0[0] = t[1] | xy0;
        }

        // Live band of regular cells: j ≡ τ (mod 2), wave offset
        // σ = τ − j even in [0, 2(l+1)], and 1 ≤ j ≤ l − 1 (position
        // 1 is the first-bit cell, but with c1[0] pinned to zero the
        // regular equations degrade to exactly its HA form; position
        // l is the leftmost cell, special-cased below).
        let j_lo = {
            let lo = tau.saturating_sub(2 * l + 2).max(1);
            lo + ((lo ^ tau) & 1)
        };
        let j_hi = {
            let hi = (l - 1).min(tau);
            // One below if parity mismatches (j_hi may underflow the
            // band entirely; the range check below handles that).
            hi.wrapping_sub((hi ^ tau) & 1)
        };
        let mut j = j_lo;
        while j <= j_hi && j_hi < w {
            // u is the wave index: operand bit and m value feeding
            // this cell. In-place updates are safe: reads (j±1) come
            // from opposite-parity slots no live cell writes this
            // cycle.
            let u = (tau - j) / 2;
            let t_in = t[j + 1];
            let c0_in = c0[j - 1];
            let c1_in = c1[j - 1];
            let a = x_pos[u] & y[j];
            let b = m_even[u] & n[j];
            let s1 = t_in ^ a ^ b;
            let k1 = (t_in & a) | (t_in & b) | (a & b);
            t[j] = s1 ^ c0_in;
            let k2 = s1 & c0_in;
            c0[j] = k1 ^ c1_in ^ k2;
            c1[j] = (k1 & c1_in) | (k1 & k2) | (c1_in & k2);
            j += 2;
        }

        // Leftmost cell (position l): live when its wave offset is
        // even and still a real (valid) wave. No m·n term (n_l = 0);
        // produces the two top digits.
        if tau >= l && (tau - l).is_multiple_of(2) && (tau - l) / 2 <= l + 1 {
            let u = (tau - l) / 2;
            let a = x_pos[u] & y[l];
            let t_in = t[l + 1];
            let c0_in = c0[l - 1];
            t[l] = t_in ^ a ^ c0_in;
            let carry = (t_in & a) | (t_in & c0_in) | (a & c0_in);
            t[l + 1] = carry ^ c1[l - 1];
        }
    }
}

/// The branchless canonicalizing final subtraction in the bit-sliced
/// domain: a **full-subtractor chain over bit rows** with all 64
/// lanes' borrows carried in one lane word. Value bit `b` of lane `k`
/// lives in bit `k` of `t[b + 1]`; the matching modulus bit is the
/// broadcast mask `n_pos[b]` (zero for `b = l`, since `N < 2^l`).
/// Per row the standard full-subtractor equations run as word ops:
///
/// ```text
/// diff    = t ^ n ^ borrow
/// borrow' = (!t & (n | borrow)) | (n & borrow)
/// ```
///
/// Pass 1 runs the borrow chain alone; the final borrow word has bit
/// `k` set iff lane `k`'s value is `< N`, so `ge = !borrow` is the
/// per-lane keep-the-difference mask. Pass 2 recomputes the chain and
/// selects `(diff & ge) | (t & !ge)` in place. Both passes visit all
/// `l + 1` rows unconditionally — the schedule depends only on `l` —
/// and entry values obey the Walter bound (`< 2N`), so every lane
/// lands in `[0, N)`.
#[inline(never)]
fn cond_sub_bitsliced(l: usize, n_pos: &[u64], t: &mut [u64]) {
    let mut borrow = 0u64;
    for b in 0..=l {
        let tb = t[b + 1];
        let nb = if b < l { n_pos[b] } else { 0 };
        borrow = (!tb & (nb | borrow)) | (nb & borrow);
    }
    let ge = !borrow;
    let mut borrow = 0u64;
    for b in 0..=l {
        let tb = t[b + 1];
        let nb = if b < l { n_pos[b] } else { 0 };
        let diff = tb ^ nb ^ borrow;
        borrow = (!tb & (nb | borrow)) | (nb & borrow);
        t[b + 1] = (diff & ge) | (tb & !ge);
    }
}

/// Adapter running a scalar [`MontMul`] engine lane by lane behind the
/// [`BatchMontMul`] interface — the baseline the bit-sliced engine is
/// benchmarked against, and a correctness cross-check.
#[derive(Debug, Clone)]
pub struct SequentialBatch<E: MontMul> {
    engine: E,
}

impl<E: MontMul> SequentialBatch<E> {
    /// Wraps a scalar engine.
    pub fn new(engine: E) -> Self {
        SequentialBatch { engine }
    }
}

impl<E: MontMul> BatchMontMul for SequentialBatch<E> {
    fn params(&self) -> &MontgomeryParams {
        self.engine.params()
    }

    fn max_lanes(&self) -> usize {
        usize::MAX
    }

    fn mont_mul_batch(&mut self, xs: &[Ubig], ys: &[Ubig]) -> Vec<Ubig> {
        assert_eq!(xs.len(), ys.len(), "operand count mismatch");
        xs.iter()
            .zip(ys)
            .map(|(x, y)| self.engine.mont_mul(x, y))
            .collect()
    }

    fn consumed_cycles(&self) -> Option<u64> {
        self.engine.consumed_cycles()
    }

    fn name(&self) -> &'static str {
        "sequential batch adapter"
    }
}

/// Montgomery-multiplies an arbitrary number of lane pairs, driven by
/// an [`EngineConfig`]: shards into `shard_lanes`-wide batches fanned
/// out across cores with rayon (results keep input order), each on a
/// warm engine of the configured backend from the process-wide
/// [`pool`], under the config's hardening, verify policy and
/// quarantine. Every backend returns bit-identical results. Every
/// input rejection — length mismatch, an operand `≥ 2N` (reported with
/// its index in `xs`/`ys`, not shard-local), a bit-sliced request on
/// hardware-unsafe parameters — comes back as a typed [`MmmError`]
/// instead of a panic, so one bad request cannot abort a serving
/// process. Empty input is `Ok(vec![])` (a sharding façade has no
/// lanes to reject). Under
/// [`HardeningMode::Hardened`](crate::config::HardeningMode::Hardened) results are the
/// canonical `< N` representatives (the same residues; `Off` returns
/// the raw Algorithm-2 `< 2N` values).
pub fn try_mont_mul_many(
    params: &MontgomeryParams,
    xs: &[Ubig],
    ys: &[Ubig],
    config: &EngineConfig,
) -> Result<Vec<Ubig>, MmmError> {
    if xs.len() != ys.len() {
        return Err(MmmError::LengthMismatch {
            left: xs.len(),
            right: ys.len(),
        });
    }
    for (k, (x, y)) in xs.iter().zip(ys).enumerate() {
        if !(params.check_operand(x) && params.check_operand(y)) {
            return Err(MmmError::OperandOutOfRange {
                lane: k,
                bound: OperandBound::TwoN,
            });
        }
    }
    pool::run_lanes(params, config, xs.len(), |mut engine, lanes| {
        Ok(engine.mont_mul_batch(&xs[lanes.clone()], &ys[lanes]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HardeningMode;
    use crate::engine::EngineKind;
    use crate::modgen::{random_operand, random_safe_params};
    use crate::montgomery::mont_mul_alg2;
    use crate::wave_packed::PackedMmmc;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_lane_matches_solo_packed_engine() {
        let mut rng = StdRng::seed_from_u64(201);
        for l in [3usize, 8, 31, 63, 64, 65, 130] {
            let p = random_safe_params(&mut rng, l);
            let lanes = 64.min(2 * l);
            let xs: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let ys: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let mut batch = EngineKind::BitSliced.build(p.clone());
            let mut got = Vec::new();
            batch.mont_mul_batch_into(&xs, &ys, &mut got);
            let cycles = batch.consumed_cycles().expect("the array counts cycles");
            assert_eq!(cycles, (3 * l + 4) as u64);
            let mut solo = PackedMmmc::new(p.clone());
            for k in 0..lanes {
                assert_eq!(
                    got[k],
                    solo.mont_mul(&xs[k], &ys[k]),
                    "lane {k} diverged at l={l}"
                );
            }
        }
    }

    #[test]
    fn hardened_batch_outputs_are_canonical_residues() {
        let mut rng = StdRng::seed_from_u64(207);
        for l in [3usize, 17, 63, 64, 65, 130] {
            let p = random_safe_params(&mut rng, l);
            let lanes = 64.min(2 * l);
            let xs: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let ys: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let mut batch = EngineKind::BitSliced.build(p.clone());
            batch.set_hardening(HardeningMode::Hardened);
            let got = batch.mont_mul_batch(&xs, &ys);
            for k in 0..lanes {
                let want = mont_mul_alg2(&p, &xs[k], &ys[k]).rem(p.n());
                assert_eq!(got[k], want, "lane {k} not canonical at l={l}");
                assert!(got[k] < *p.n());
            }
            // Switching back restores the raw < 2N contract.
            batch.set_hardening(HardeningMode::Off);
            let raw = batch.mont_mul_batch(&xs, &ys);
            for k in 0..lanes {
                assert_eq!(raw[k], mont_mul_alg2(&p, &xs[k], &ys[k]));
            }
        }
    }

    #[test]
    fn partial_batches_match_reference() {
        let mut rng = StdRng::seed_from_u64(202);
        let p = random_safe_params(&mut rng, 48);
        let mut batch = EngineKind::BitSliced.build(p.clone());
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
    fn engine_is_reusable_across_batches() {
        let mut rng = StdRng::seed_from_u64(203);
        let p = random_safe_params(&mut rng, 20);
        let mut batch = EngineKind::BitSliced.build(p.clone());
        for round in 0..5 {
            let xs: Vec<Ubig> = (0..7).map(|_| random_operand(&mut rng, &p)).collect();
            let ys: Vec<Ubig> = (0..7).map(|_| random_operand(&mut rng, &p)).collect();
            let got = batch.mont_mul_batch(&xs, &ys);
            for k in 0..7 {
                assert_eq!(got[k], mont_mul_alg2(&p, &xs[k], &ys[k]), "round {round}");
            }
        }
        assert_eq!(batch.consumed_cycles(), Some(5 * (3 * 20 + 4)));
    }

    #[test]
    fn sequential_adapter_agrees_with_batch() {
        let mut rng = StdRng::seed_from_u64(204);
        let p = random_safe_params(&mut rng, 33);
        let xs: Vec<Ubig> = (0..10).map(|_| random_operand(&mut rng, &p)).collect();
        let ys: Vec<Ubig> = (0..10).map(|_| random_operand(&mut rng, &p)).collect();
        let mut seq = SequentialBatch::new(PackedMmmc::new(p.clone()));
        let mut bat = EngineKind::BitSliced.build(p.clone());
        assert_eq!(seq.mont_mul_batch(&xs, &ys), bat.mont_mul_batch(&xs, &ys));
    }

    #[test]
    fn sharded_many_handles_odd_sizes() {
        let mut rng = StdRng::seed_from_u64(205);
        let p = random_safe_params(&mut rng, 16);
        for count in [1usize, 64, 65, 200] {
            let xs: Vec<Ubig> = (0..count).map(|_| random_operand(&mut rng, &p)).collect();
            let ys: Vec<Ubig> = (0..count).map(|_| random_operand(&mut rng, &p)).collect();
            let got = try_mont_mul_many(&p, &xs, &ys, &EngineConfig::default()).unwrap();
            assert_eq!(got.len(), count);
            for k in 0..count {
                assert_eq!(
                    got[k],
                    mont_mul_alg2(&p, &xs[k], &ys[k]),
                    "count={count} k={k}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 lanes")]
    fn rejects_oversized_batch() {
        let mut rng = StdRng::seed_from_u64(206);
        let p = random_safe_params(&mut rng, 8);
        let xs: Vec<Ubig> = (0..65).map(|_| random_operand(&mut rng, &p)).collect();
        let ys = xs.clone();
        let _ = EngineKind::BitSliced.build(p).mont_mul_batch(&xs, &ys);
    }

    #[test]
    #[should_panic(expected = "operands must be < 2N")]
    fn rejects_out_of_range_operand() {
        let mut rng = StdRng::seed_from_u64(207);
        let p = random_safe_params(&mut rng, 8);
        let bad = p.two_n();
        let _ = EngineKind::BitSliced
            .build(p.clone())
            .mont_mul_batch(std::slice::from_ref(&bad), std::slice::from_ref(&bad));
    }
}
