//! Radix-2⁵² carry-save CIOS Montgomery multiplication — the
//! vector-unit-shaped production backend.
//!
//! ## Why 52-bit digits
//!
//! The paper's systolic array fixes radix `r = 2` because a one-bit
//! digit is what its hardware cells can absorb per wave. On a modern
//! CPU the analogous move is picking the radix that fits the vector
//! unit: **52-bit digits stored one per 64-bit lane**. The 12 spare
//! bits per lane are carry headroom, so the inner multiply-accumulate
//! loop never ripples a carry — high halves of the 52×52→104-bit
//! products are *deferred* into the neighbouring digit and the whole
//! accumulator is renormalized **once per outer scan step**, not once
//! per digit. This is exactly the shape of AVX-512-IFMA's
//! `vpmadd52lo/hi` instructions, and the same dataflow maps onto AVX2
//! `mul_epu32` and onto plain u64/u128 arithmetic. So the scan is
//! written **once**, generic over a small lane-vector trait, and each
//! kernel is one impl of it: [`Cios52Kernel::Portable`] (8 u64 lanes),
//! [`Cios52Kernel::Avx2`] (4 lanes per `__m256i`) and
//! [`Cios52Kernel::Ifma`] (8 lanes per `__m512i`).
//!
//! CPU features are detected once per process
//! ([`Cios52Kernel::available`], a `OnceLock`) and the strongest
//! available kernel is selected ([`Cios52Kernel::active`]); every
//! kernel computes the identical function, asserted lane-for-lane by
//! the unit tests below and the cross-engine suites.
//!
//! ## Same contract, third radix
//!
//! Like the radix-2⁶⁴ scan ([`crate::cios`]), this engine implements
//! the **same mathematical function** as Algorithm 2 — `T = (x·y +
//! M·N)/2^{l+2}` with the unique `M < 2^{l+2}` — *not* a digit-domain
//! variant with `R = 2^{52·s}`. The reduction by `2^{l+2}` factors
//! into `⌊(l+2)/52⌋` full 52-bit steps plus one partial step for the
//! remaining `(l+2) mod 52` bits, so the result is **bit-identical**
//! to the radix-2⁶⁴ scan, the bit-sliced array ([`crate::batch`])
//! and `Ubig::modpow`, including the non-canonical `< 2N`
//! representative. Operands enter and leave in ordinary 64-bit limbs;
//! the 64↔52-bit conversions ([`limbs_to_digits52`] /
//! [`digits52_to_limbs`]) are internal to one batch call. The digit
//! geometry (`s₅₂`, `n0' mod 2⁵²`) is derived once in
//! [`MontgomeryParams::radix52`][crate::montgomery::MontgomeryParams::radix52],
//! next to the word-domain view. DESIGN.md §9 derives the
//! representation and the carry headroom budget.
//!
//! ## Constant-time status
//!
//! Identical to the radix-2⁶⁴ scan: fixed schedule, no final
//! subtraction, no data-dependent branches; quotient digits feed
//! multiplies, never indexing. Under
//! [`HardeningMode::Hardened`](crate::config::HardeningMode::Hardened)
//! the engine shell ([`crate::engine::AnyBatchEngine`]) gives the
//! word-form output (after the digit→word scatter, which is
//! shape-driven and value-independent) the same branchless
//! canonicalizing final subtraction as the radix-2⁶⁴ backend
//! (`cios::cond_sub_rows`) — one decision borrow chain plus
//! one masked subtraction per lane, so hardened outputs are `< N` on
//! every kernel with a value-independent schedule. DESIGN.md §12 has
//! the full per-path table.

use crate::batch::{row, row_mut, LaneRow, MAX_LANES};
use crate::montgomery::MontgomeryParams;
use mmm_bigint::limbs::{Limb, LIMB_BITS};
use mmm_bigint::transpose::{lanes_to_limbs_into, limbs_to_lanes_into};
use mmm_bigint::Ubig;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::sync::OnceLock;

/// Payload bits per digit: 52 of the 64 lane bits carry value, the
/// top 12 are deferred-carry headroom.
pub const DIGIT_BITS: usize = 52;

/// Mask selecting one digit's payload bits.
pub const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;

/// Per-width geometry of the radix-2⁵² scan over `R = 2^{l+2}`: the
/// digit-domain view from `MontgomeryParams::radix52` plus the word
/// count of the 64-bit I/O representation.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    /// Digit count `s₅₂ = ⌈(l+2)/52⌉`.
    s: usize,
    /// Number of full 52-bit reduction steps `⌊(l+2)/52⌋`.
    full: usize,
    /// Remaining shift `(l+2) mod 52` handled by the partial step.
    rem: u32,
    /// `n0' = -N⁻¹ mod 2⁵²`.
    n0_inv: u64,
    /// Operand limb count of the 64-bit I/O form, `⌈(l+2)/64⌉`.
    sw: usize,
}

impl Geometry {
    fn of(params: &MontgomeryParams) -> Self {
        let r = params.radix52();
        Geometry {
            s: r.digits(),
            full: r.full(),
            rem: r.rem(),
            n0_inv: r.n0_inv(),
            sw: (params.l() + 2).div_ceil(LIMB_BITS),
        }
    }
}

/// Splits a little-endian 64-bit limb vector into `digits` 52-bit
/// digits (little-endian, one digit per returned u64, all `< 2⁵²`).
/// Digit `d` holds bits `[52d, 52d + 52)` of the value; bits beyond
/// the input are zero.
pub fn limbs_to_digits52(limbs: &[u64], digits: usize) -> Vec<u64> {
    let mut out = vec![0u64; digits];
    for (d, o) in out.iter_mut().enumerate() {
        let bit = d * DIGIT_BITS;
        let w = bit / LIMB_BITS;
        let b = (bit % LIMB_BITS) as u32;
        if w >= limbs.len() {
            break;
        }
        let mut v = limbs[w] >> b;
        if b as usize > LIMB_BITS - DIGIT_BITS && w + 1 < limbs.len() {
            v |= limbs[w + 1] << (LIMB_BITS as u32 - b);
        }
        *o = v & DIGIT_MASK;
    }
    out
}

/// Inverse of [`limbs_to_digits52`]: packs normalized 52-bit digits
/// back into `limbs` 64-bit limbs.
///
/// # Panics
/// Panics if any digit has payload above bit 52 (the carry-save
/// headroom must have been normalized away) or if the value does not
/// fit `limbs` limbs.
pub fn digits52_to_limbs(digits: &[u64], limbs: usize) -> Vec<u64> {
    let mut out = vec![0u64; limbs];
    for (d, &v) in digits.iter().enumerate() {
        assert!(v <= DIGIT_MASK, "digit {d} not normalized: {v:#x}");
        let bit = d * DIGIT_BITS;
        let w = bit / LIMB_BITS;
        let b = (bit % LIMB_BITS) as u32;
        let spills = b as usize > LIMB_BITS - DIGIT_BITS;
        if w < limbs {
            out[w] |= v << b;
            if spills && w + 1 < limbs {
                out[w + 1] |= v >> (LIMB_BITS as u32 - b);
            } else if spills {
                assert_eq!(
                    v >> (LIMB_BITS as u32 - b),
                    0,
                    "value exceeds {limbs} limbs"
                );
            }
        } else {
            assert_eq!(v, 0, "value exceeds {limbs} limbs");
        }
    }
    out
}

/// Word-SoA → digit-SoA: for each digit row, gather bits
/// `[52d, 52d + 52)` from the (at most two) straddled word rows, all
/// `MAX_LANES` lanes at once.
fn soa_words_to_digits52(words: &[Limb], sw: usize, digits: &mut [LaneRow]) {
    for (d, drow) in digits.iter_mut().enumerate() {
        let bit = d * DIGIT_BITS;
        let w = bit / LIMB_BITS;
        let b = (bit % LIMB_BITS) as u32;
        let wrow = row(words, w);
        if b as usize > LIMB_BITS - DIGIT_BITS && w + 1 < sw {
            let nrow = row(words, w + 1);
            let up = LIMB_BITS as u32 - b;
            for k in 0..MAX_LANES {
                drow[k] = ((wrow[k] >> b) | (nrow[k] << up)) & DIGIT_MASK;
            }
        } else {
            for k in 0..MAX_LANES {
                drow[k] = (wrow[k] >> b) & DIGIT_MASK;
            }
        }
    }
}

/// Digit-SoA → word-SoA: scatter each normalized digit row into the
/// word rows it straddles. Requires every digit `< 2⁵²` (the kernels
/// end with a normalization pass, so this holds on the output path).
fn soa_digits52_to_words(digits: &[LaneRow], words: &mut [Limb], sw: usize) {
    words[..sw * MAX_LANES].fill(0);
    for (d, drow) in digits.iter().enumerate() {
        let bit = d * DIGIT_BITS;
        let w = bit / LIMB_BITS;
        let b = (bit % LIMB_BITS) as u32;
        let wrow = row_mut(words, w);
        for k in 0..MAX_LANES {
            debug_assert!(drow[k] <= DIGIT_MASK, "unnormalized digit on output");
            wrow[k] |= drow[k] << b;
        }
        if b as usize > LIMB_BITS - DIGIT_BITS && w + 1 < sw {
            let down = LIMB_BITS as u32 - b;
            let nrow = row_mut(words, w + 1);
            for k in 0..MAX_LANES {
                nrow[k] |= drow[k] >> down;
            }
        }
    }
}

/// Which concrete inner-loop implementation a radix-2⁵² engine runs.
/// All kernels compute the identical function; selection is purely a
/// throughput decision made once per process from CPU features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cios52Kernel {
    /// Groups of 8 u64 lanes with u128 products; runs on any host.
    Portable,
    /// x86-64 AVX2: 4 lanes per `__m256i`, 52×52 products from four
    /// `mul_epu32` via a 26-bit split.
    Avx2,
    /// x86-64 AVX-512-IFMA: 8 lanes per `__m512i`, `vpmadd52lo/hi`.
    Ifma,
}

impl Cios52Kernel {
    /// Short stable name, recorded in benchmark JSON so results say
    /// which kernel actually ran.
    pub fn name(self) -> &'static str {
        match self {
            Cios52Kernel::Portable => "portable",
            Cios52Kernel::Avx2 => "avx2",
            Cios52Kernel::Ifma => "ifma",
        }
    }

    /// Every kernel this host can run, ordered weakest → strongest.
    /// CPU feature detection happens **once** per process (cached in a
    /// `OnceLock`); the portable kernel is always present, so the
    /// slice is never empty.
    pub fn available() -> &'static [Cios52Kernel] {
        static AVAILABLE: OnceLock<Vec<Cios52Kernel>> = OnceLock::new();
        AVAILABLE.get_or_init(|| {
            let mut v = vec![Cios52Kernel::Portable];
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    v.push(Cios52Kernel::Avx2);
                }
                if std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512ifma")
                {
                    v.push(Cios52Kernel::Ifma);
                }
            }
            v
        })
    }

    /// The strongest kernel this host can run — what
    /// `EngineKind::Cios52.build` selects.
    pub fn active() -> Cios52Kernel {
        *Self::available()
            .last()
            .expect("portable kernel is always available")
    }

    /// The next-weaker kernel available on this host, or `None` from
    /// the portable kernel (there is nothing simpler to retreat to).
    /// Used by the integrity layer's demotion ladder: a kernel that
    /// produced a corrupted lane steps down rather than being trusted
    /// again.
    pub fn weaker(self) -> Option<Cios52Kernel> {
        let avail = Self::available();
        let pos = avail.iter().position(|&k| k == self)?;
        pos.checked_sub(1).map(|i| avail[i])
    }
}

/// The radix-2⁵² carry-save CIOS datapath behind
/// [`EngineKind::Cios52`]: up to 64 independent Montgomery
/// multiplications per batch in struct-of-arrays lane layout, driven
/// through its load/run/store stages by the [`AnyBatchEngine`] shell and
/// bit-identical to every other Algorithm-2 engine.
///
/// [`EngineKind::Cios52`]: crate::engine::EngineKind::Cios52
/// [`AnyBatchEngine`]: crate::engine::AnyBatchEngine
#[derive(Debug, Clone)]
pub(crate) struct Cios52Datapath {
    geo: Geometry,
    kernel: Cios52Kernel,
    /// Modulus as `s` normalized 52-bit digits (shared by all lanes).
    n: Vec<Limb>,
    /// Modulus in 64-bit word form padded to `sw` limbs — what the
    /// canonicalizing subtraction compares the word-form output
    /// against.
    n_words: Vec<Limb>,
    /// Word-domain SoA staging buffer (`sw` rows), reused for input
    /// transposes and the output conversion.
    wscratch: Vec<Limb>,
    /// Digit-domain SoA operands: `x[d][k]` is digit `d`, lane `k`.
    x: Vec<LaneRow>,
    y: Vec<LaneRow>,
    /// Digit-domain SoA accumulator, `s + 1` rows.
    t: Vec<LaneRow>,
}

impl Cios52Datapath {
    /// Allocates the digit rows for `params`, pinned to `kernel`. Like
    /// the other software scans there is no hardware-safety
    /// requirement: any valid parameters (e.g. `tight` widths) are
    /// accepted.
    ///
    /// # Panics
    /// Panics if `kernel` is not in [`Cios52Kernel::available`] on
    /// this host.
    pub(crate) fn new(params: &MontgomeryParams, kernel: Cios52Kernel) -> Self {
        assert!(
            Cios52Kernel::available().contains(&kernel),
            "kernel {} not available on this host",
            kernel.name()
        );
        let geo = Geometry::of(params);
        let mut n_words = params.n().limbs().to_vec();
        n_words.resize(geo.sw, 0);
        Cios52Datapath {
            n: limbs_to_digits52(&n_words, geo.s),
            n_words,
            wscratch: vec![0; geo.sw * MAX_LANES],
            x: vec![[0; MAX_LANES]; geo.s],
            y: vec![[0; MAX_LANES]; geo.s],
            t: vec![[0; MAX_LANES]; geo.s + 1],
            geo,
            kernel,
        }
    }

    /// Which kernel this datapath runs.
    pub(crate) fn kernel(&self) -> Cios52Kernel {
        self.kernel
    }

    /// Steps down to the next-weaker available kernel
    /// ([`Cios52Kernel::weaker`]); `true` if a demotion happened,
    /// `false` when already on the portable kernel. The buffers are
    /// kernel-independent, so they stay.
    pub(crate) fn demote(&mut self) -> bool {
        match self.kernel.weaker() {
            Some(weaker) => {
                self.kernel = weaker;
                true
            }
            None => false,
        }
    }

    /// Engine name for reports, naming the kernel that runs.
    pub(crate) fn name(&self) -> &'static str {
        match self.kernel {
            Cios52Kernel::Portable => "radix-2^52 carry-save CIOS batch (portable, 64 lanes)",
            Cios52Kernel::Avx2 => "radix-2^52 carry-save CIOS batch (avx2, 64 lanes)",
            Cios52Kernel::Ifma => "radix-2^52 carry-save CIOS batch (ifma, 64 lanes)",
        }
    }

    /// Transposes a validated batch into word rows, splits those into
    /// 52-bit digit rows and clears the accumulator.
    pub(crate) fn load(&mut self, xs: &[Ubig], ys: &[Ubig]) {
        let sw = self.geo.sw;
        lanes_to_limbs_into(xs, sw, MAX_LANES, &mut self.wscratch);
        soa_words_to_digits52(&self.wscratch, sw, &mut self.x);
        lanes_to_limbs_into(ys, sw, MAX_LANES, &mut self.wscratch);
        soa_words_to_digits52(&self.wscratch, sw, &mut self.y);
        self.t.fill([0; MAX_LANES]);
    }

    /// Runs the selected kernel on the loaded batch and packs the
    /// normalized digit rows back into word rows — the form the
    /// canonicalizing subtraction and [`Self::store`] read. The SIMD
    /// kernels are `unsafe` only because of their `#[target_feature]`
    /// contract.
    #[allow(unsafe_code)]
    pub(crate) fn run(&mut self) {
        match self.kernel {
            Cios52Kernel::Portable => {
                run_cios52_portable(self.geo, &self.n, &self.x, &self.y, &mut self.t)
            }
            // SAFETY: `kernel` is private and only ever set by `new`
            // (which asserts it is in `Cios52Kernel::available()`) or
            // `demote` (`weaker()` returns only available kernels), so
            // this host has AVX2.
            #[cfg(target_arch = "x86_64")]
            Cios52Kernel::Avx2 => unsafe {
                run_cios52_avx2(self.geo, &self.n, &self.x, &self.y, &mut self.t)
            },
            // SAFETY: as above — an `Ifma` kernel is only held when
            // this host has AVX-512F and AVX-512-IFMA.
            #[cfg(target_arch = "x86_64")]
            Cios52Kernel::Ifma => unsafe {
                run_cios52_ifma(self.geo, &self.n, &self.x, &self.y, &mut self.t)
            },
            #[cfg(not(target_arch = "x86_64"))]
            Cios52Kernel::Avx2 | Cios52Kernel::Ifma => {
                unreachable!("SIMD kernels are x86-64 only and gated by Cios52Datapath::new")
            }
        }
        let Geometry { s, sw, .. } = self.geo;
        soa_digits52_to_words(&self.t[..s], &mut self.wscratch, sw);
    }

    /// Canonicalizes every lane of the word-form result `< N` in place
    /// (the radix-2⁶⁴ backend's `cond_sub_rows`).
    pub(crate) fn cond_sub(&mut self) {
        crate::cios::cond_sub_rows(&self.n_words, &mut self.wscratch, self.geo.sw);
    }

    /// Gathers the first `lanes` results into `out`, recycling its limb
    /// buffers.
    pub(crate) fn store(&self, lanes: usize, out: &mut Vec<Ubig>) {
        let sw = self.geo.sw;
        limbs_to_lanes_into(&self.wscratch[..sw * MAX_LANES], sw, MAX_LANES, lanes, out);
    }
}

/// The lane-vector operations the carry-save scan is written in: one
/// value holds lanes `off..off + W` of an SoA digit row. [`scan`] is
/// written once over this trait, and each kernel is one impl. Each impl
/// must meet DESIGN.md §9's headroom budget: `mac`'s low part is below
/// 2⁵³, and exact mod 2⁵² even for `b < 2⁵⁴` (`mul_lo52` needs that).
trait LaneVec: Copy {
    /// Lanes per vector, one `u64` each; divides `MAX_LANES`.
    const W: usize = std::mem::size_of::<Self>() / 8;
    /// A multiplicand prepared once per scan step (`x_i`, `m`, `n0'`):
    /// split into 26-bit halves on AVX2, unchanged elsewhere.
    type Mul: Copy;
    fn load(row: &LaneRow, off: usize) -> Self;
    fn store(self, row: &mut LaneRow, off: usize);
    fn splat(v: u64) -> Self;
    fn add(self, other: Self) -> Self;
    fn and(self, other: Self) -> Self;
    fn shr(self, bits: u32) -> Self;
    fn shl(self, bits: u32) -> Self;
    /// Prepares lanes `< 2⁵²` as a multiplicand.
    fn prep(self) -> Self::Mul;
    /// `(acc + lo, hi)` with `lo + hi·2⁵² = a·b` and `lo < 2⁵³`, for
    /// lanes `a, b < 2⁵²`.
    fn mac(acc: Self, a: Self::Mul, b: Self) -> (Self, Self);
    /// `a·b mod 2⁵²`, exact for lanes `a < 2⁵⁴`.
    #[inline(always)]
    fn mul_lo52(a: Self, b: Self::Mul) -> Self {
        let lo = Self::mac(Self::splat(0), b, a).0;
        lo.and(Self::splat(DIGIT_MASK))
    }
}

/// Debug builds only: panics with `what` unless every lane of `v()` is
/// zero. The lanes are read back through `store`, so every kernel checks.
#[inline(always)]
fn debug_lanes_zero<V: LaneVec>(v: impl FnOnce() -> V, what: &str) {
    if cfg!(debug_assertions) {
        let mut lanes: LaneRow = [0; MAX_LANES];
        v().store(&mut lanes, 0);
        assert_eq!(lanes, [0; MAX_LANES], "{what}");
    }
}

/// `t += a ⊙ b` on lanes `off..off + W` of rows `0..=s`, `b` yielding
/// the `s` row multiplicands. Each row takes the low half of its product
/// plus the row below's deferred high half; the last high half lands in
/// row `s`. No carry ripples.
#[inline(always)]
fn accumulate<V: LaneVec>(t: &mut [LaneRow], off: usize, a: V::Mul, b: impl Iterator<Item = V>) {
    let (top, rows) = t.split_last_mut().expect("s + 1 rows");
    let mut hi = V::splat(0);
    for (tj, bj) in rows.iter_mut().zip(b) {
        let (acc, h) = V::mac(V::load(tj, off).add(hi), a, bj);
        acc.store(tj, off);
        hi = h;
    }
    V::load(top, off).add(hi).store(top, off);
}

/// The once-per-step normalization of lanes `off..off + W`, fused with
/// the step's exact division by `2^k` (`k ≤ 52`): ripple the deferred
/// carries up through `t`, the *only* carry chain in the scan, and
/// shift the value right by `k` bits, leaving every digit `< 2⁵²`.
#[inline(always)]
fn normalize_shr<V: LaneVec>(t: &mut [LaneRow], off: usize, k: u32) {
    let (mask, low) = (V::splat(DIGIT_MASK), V::splat((1 << k) - 1));
    let v = V::load(&t[0], off);
    debug_lanes_zero(|| v.and(low), "low bits of the step must cancel");
    // `prev` is the normalized digit below row `j`. Its shifted part and
    // `up` occupy disjoint bits, so `add` joins them. With `k = 52` the
    // shifts fold away and each digit just moves down one row.
    let (mut carry, mut prev) = (v.shr(DIGIT_BITS as u32), v.and(mask));
    for j in 1..t.len() {
        let v = V::load(&t[j], off).add(carry);
        let d = v.and(mask);
        let up = d.and(low).shl(DIGIT_BITS as u32 - k);
        prev.shr(k).add(up).store(&mut t[j - 1], off);
        (carry, prev) = (v.shr(DIGIT_BITS as u32), d);
    }
    prev.shr(k).store(&mut t[t.len() - 1], off);
    debug_lanes_zero(|| carry, "carry out of the top digit row");
}

/// One scan step on lanes `off..off + W` of `t` (rows `0..=s`):
/// `t = (t + x_i·y + m·N) / 2^k` with `m < 2^k`, the quotient digit
/// that makes the division exact. `k = 52` for a full step, `rem` for
/// the partial one.
#[inline(always)]
fn step<V: LaneVec>(
    t: &mut [LaneRow],
    off: usize,
    xi: V,
    y: &[LaneRow],
    n: &[Limb],
    n0_inv: V::Mul,
    k: u32,
) {
    // Pass A: t += x_i ⊙ y.
    accumulate(t, off, xi.prep(), y.iter().map(|r| V::load(r, off)));
    // m = t_0 · n0' mod 2^k. t_0 is not normalized, but its excess
    // bits weigh a multiple of 2⁵², so m is exact.
    let m = V::mul_lo52(V::load(&t[0], off), n0_inv).and(V::splat((1 << k) - 1));
    // Pass B: t += m ⊙ N clears the low k bits.
    accumulate(t, off, m.prep(), n.iter().map(|&d| V::splat(d)));
    normalize_shr::<V>(t, off, k);
}

/// The carry-save CIOS scan (see the module docs), written once for
/// every kernel. The 64 lanes run as `MAX_LANES / W` groups, each
/// running the whole scan before the next starts so its working set
/// stays cache-resident: `full` 52-bit steps, then the partial step by
/// `2^rem`. `T < 4N < 2^{52s}` between steps, so rows `0..=s` hold it.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // step i of Algorithm 2 reads digit row i of x
fn scan<V: LaneVec>(geo: Geometry, n: &[Limb], x: &[LaneRow], y: &[LaneRow], t: &mut [LaneRow]) {
    let s = geo.s;
    // Views of exactly `s` digits, so the row loops need no bounds checks.
    let (n, y, t) = (&n[..s], &y[..s], &mut t[..=s]);
    let n0_inv = V::splat(geo.n0_inv).prep();
    for g in 0..MAX_LANES / V::W {
        let off = g * V::W;
        for i in 0..geo.full {
            step(t, off, V::load(&x[i], off), y, n, n0_inv, DIGIT_BITS as u32);
        }
        if geo.rem > 0 {
            step(t, off, V::load(&x[geo.full], off), y, n, n0_inv, geo.rem);
        }
        debug_lanes_zero(|| V::load(&t[s], off), "result exceeds s digits");
    }
}

/// The portable lane vector: 8 u64 lanes, 52×52→104-bit products
/// through u128.
#[derive(Clone, Copy)]
struct Portable([u64; 8]);

impl LaneVec for Portable {
    type Mul = Self;
    #[inline(always)]
    fn load(row: &LaneRow, off: usize) -> Self {
        Portable(std::array::from_fn(|k| row[off + k]))
    }
    #[inline(always)]
    fn store(self, row: &mut LaneRow, off: usize) {
        row[off..off + Self::W].copy_from_slice(&self.0);
    }
    #[inline(always)]
    fn splat(v: u64) -> Self {
        Portable([v; 8])
    }
    #[inline(always)]
    fn add(self, other: Self) -> Self {
        Portable(std::array::from_fn(|k| self.0[k] + other.0[k]))
    }
    #[inline(always)]
    fn and(self, other: Self) -> Self {
        Portable(std::array::from_fn(|k| self.0[k] & other.0[k]))
    }
    #[inline(always)]
    fn shr(self, bits: u32) -> Self {
        Portable(self.0.map(|a| a >> bits))
    }
    #[inline(always)]
    fn shl(self, bits: u32) -> Self {
        Portable(self.0.map(|a| a << bits))
    }
    #[inline(always)]
    fn prep(self) -> Self {
        self
    }
    #[inline(always)]
    fn mac(acc: Self, a: Self, b: Self) -> (Self, Self) {
        let p: [u128; 8] = std::array::from_fn(|k| a.0[k] as u128 * b.0[k] as u128);
        let lo = Portable(p.map(|v| v as u64 & DIGIT_MASK));
        (acc.add(lo), Portable(p.map(|v| (v >> DIGIT_BITS) as u64)))
    }
}

/// The AVX-512-IFMA lane vector: 8 lanes per `__m512i`, a MAC is one
/// `vpmadd52luq` plus one `vpmadd52huq`. Both read only the low 52 bits
/// of each multiplicand: exact for the normalized `x`, `y`, `n` and `m`,
/// and exact mod 2⁵² for the redundant `t₀` of `mul_lo52`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Ifma(__m512i);

// SAFETY (every `unsafe` block here): the intrinsics need AVX-512F and
// AVX-512-IFMA, and `Ifma` values exist only in `run_cios52_ifma`, whose
// `#[target_feature]` contract `Cios52Datapath::run` upholds. Loads and
// stores touch exactly a bounds-checked `row[off..off + 8]`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
impl LaneVec for Ifma {
    type Mul = Self;
    #[inline(always)]
    fn load(row: &LaneRow, off: usize) -> Self {
        Ifma(unsafe { _mm512_loadu_si512(row[off..off + 8].as_ptr().cast()) })
    }
    #[inline(always)]
    fn store(self, row: &mut LaneRow, off: usize) {
        unsafe { _mm512_storeu_si512(row[off..off + 8].as_mut_ptr().cast(), self.0) }
    }
    #[inline(always)]
    fn splat(v: u64) -> Self {
        Ifma(unsafe { _mm512_set1_epi64(v as i64) })
    }
    #[inline(always)]
    fn add(self, other: Self) -> Self {
        Ifma(unsafe { _mm512_add_epi64(self.0, other.0) })
    }
    #[inline(always)]
    fn and(self, other: Self) -> Self {
        Ifma(unsafe { _mm512_and_si512(self.0, other.0) })
    }
    #[inline(always)]
    fn shr(self, bits: u32) -> Self {
        Ifma(unsafe { _mm512_srl_epi64(self.0, _mm_cvtsi32_si128(bits as i32)) })
    }
    #[inline(always)]
    fn shl(self, bits: u32) -> Self {
        Ifma(unsafe { _mm512_sll_epi64(self.0, _mm_cvtsi32_si128(bits as i32)) })
    }
    #[inline(always)]
    fn prep(self) -> Self {
        self
    }
    #[inline(always)]
    fn mac(acc: Self, a: Self, b: Self) -> (Self, Self) {
        let lo = unsafe { _mm512_madd52lo_epu64(acc.0, a.0, b.0) };
        let hi = unsafe { _mm512_madd52hi_epu64(_mm512_setzero_si512(), a.0, b.0) };
        (Ifma(lo), Ifma(hi))
    }
}

/// The AVX2 lane vector: 4 lanes per `__m256i`. AVX2 has no 52- or
/// even 64-bit multiplier, so each 52×52 product is assembled from
/// `_mm256_mul_epu32` 32×32→64 multiplies via a 26-bit operand split
/// `a = a₀ + a₁·2²⁶` (the step's multiplicand is split once, by `prep`):
///
/// ```text
/// a·b = a₀b₀ + (a₀b₁ + a₁b₀)·2²⁶ + a₁b₁·2⁵²
///     = plo + phi·2⁵²    with  plo = a₀b₀ + (mid mod 2²⁶)·2²⁶ < 2⁵³
///                              phi = a₁b₁ + ⌊mid/2²⁶⌋
/// ```
///
/// `plo` is *redundant* (up to 53 bits), which the carry-save
/// accumulator absorbs. For `b < 2⁵⁴`, `b₁` still fits the 32 bits
/// `mul_epu32` reads, so `plo` stays exact mod 2⁵².
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx2(__m256i);

// SAFETY (every `unsafe` block here): the intrinsics need AVX2, and
// `Avx2` values exist only in `run_cios52_avx2`, whose `#[target_feature]`
// contract `Cios52Datapath::run` upholds. Loads and stores touch exactly
// a bounds-checked `row[off..off + 4]`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
impl LaneVec for Avx2 {
    /// The 26-bit halves `(a₀, a₁)`.
    type Mul = (Self, Self);
    #[inline(always)]
    fn load(row: &LaneRow, off: usize) -> Self {
        Avx2(unsafe { _mm256_loadu_si256(row[off..off + 4].as_ptr().cast()) })
    }
    #[inline(always)]
    fn store(self, row: &mut LaneRow, off: usize) {
        unsafe { _mm256_storeu_si256(row[off..off + 4].as_mut_ptr().cast(), self.0) }
    }
    #[inline(always)]
    fn splat(v: u64) -> Self {
        Avx2(unsafe { _mm256_set1_epi64x(v as i64) })
    }
    #[inline(always)]
    fn add(self, other: Self) -> Self {
        Avx2(unsafe { _mm256_add_epi64(self.0, other.0) })
    }
    #[inline(always)]
    fn and(self, other: Self) -> Self {
        Avx2(unsafe { _mm256_and_si256(self.0, other.0) })
    }
    #[inline(always)]
    fn shr(self, bits: u32) -> Self {
        Avx2(unsafe { _mm256_srl_epi64(self.0, _mm_cvtsi32_si128(bits as i32)) })
    }
    #[inline(always)]
    fn shl(self, bits: u32) -> Self {
        Avx2(unsafe { _mm256_sll_epi64(self.0, _mm_cvtsi32_si128(bits as i32)) })
    }
    #[inline(always)]
    fn prep(self) -> (Self, Self) {
        (self.and(Self::splat((1 << 26) - 1)), self.shr(26))
    }
    #[inline(always)]
    fn mac(acc: Self, (a0, a1): (Self, Self), b: Self) -> (Self, Self) {
        let (b0, b1) = b.prep();
        let mul = |u: Self, v: Self| Avx2(unsafe { _mm256_mul_epu32(u.0, v.0) });
        let mid = mul(a0, b1).add(mul(a1, b0));
        let plo = mul(a0, b0).add(mid.and(Self::splat((1 << 26) - 1)).shl(26));
        (acc.add(plo), mul(a1, b1).add(mid.shr(26)))
    }
}

/// The portable kernel: [`scan`] over [`Portable`] lanes.
#[inline(never)]
fn run_cios52_portable(geo: Geometry, n: &[Limb], x: &[LaneRow], y: &[LaneRow], t: &mut [LaneRow]) {
    scan::<Portable>(geo, n, x, y, t)
}

/// The AVX-512-IFMA kernel: [`scan`] over [`Ifma`] lanes. Callers must
/// ensure this host has `avx512f` and `avx512ifma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512ifma")]
fn run_cios52_ifma(geo: Geometry, n: &[Limb], x: &[LaneRow], y: &[LaneRow], t: &mut [LaneRow]) {
    scan::<Ifma>(geo, n, x, y, t)
}

/// The AVX2 kernel: [`scan`] over [`Avx2`] lanes. Callers must ensure
/// this host has `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_cios52_avx2(geo: Geometry, n: &[Limb], x: &[LaneRow], y: &[LaneRow], t: &mut [LaneRow]) {
    scan::<Avx2>(geo, n, x, y, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HardeningMode;
    use crate::engine::{AnyBatchEngine, EngineKind};
    use crate::modgen::{random_operand, random_safe_params};
    use crate::montgomery::mont_mul_alg2;
    use crate::traits::BatchMontMul;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The kernel a radix-2⁵² engine runs.
    fn kernel_of(e: &AnyBatchEngine) -> Cios52Kernel {
        e.cios52_kernel().expect("a radix-2^52 engine")
    }

    #[test]
    fn kernel_detection_is_cached_and_nonempty() {
        let a = Cios52Kernel::available();
        assert!(!a.is_empty());
        assert_eq!(
            a[0],
            Cios52Kernel::Portable,
            "portable is the universal floor"
        );
        // Cached: the same slice comes back.
        assert_eq!(a.as_ptr(), Cios52Kernel::available().as_ptr());
        assert!(a.contains(&Cios52Kernel::active()));
    }

    #[test]
    fn conversion_round_trips_and_splits_bits() {
        let mut rng = StdRng::seed_from_u64(701);
        for limbs in 1usize..=6 {
            let digits = (limbs * 64).div_ceil(DIGIT_BITS);
            for _ in 0..50 {
                let ws: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
                let ds = limbs_to_digits52(&ws, digits);
                assert!(ds.iter().all(|&d| d <= DIGIT_MASK));
                // Digit d holds bits [52d, 52d+52) — spot-check via
                // the big-integer view.
                let v = Ubig::from_limbs(ws.clone());
                for (d, &dig) in ds.iter().enumerate() {
                    let want = (&v >> (d * DIGIT_BITS))
                        .low_bits(DIGIT_BITS)
                        .to_u64()
                        .expect("52 bits fit one limb");
                    assert_eq!(dig, want, "digit {d} of {limbs} limbs");
                }
                assert_eq!(digits52_to_limbs(&ds, limbs), ws, "{limbs} limbs");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not normalized")]
    fn digits_to_limbs_rejects_unnormalized_digit() {
        let _ = digits52_to_limbs(&[DIGIT_MASK + 1], 1);
    }

    #[test]
    fn demotion_walks_down_to_portable_and_stays_correct() {
        let mut rng = StdRng::seed_from_u64(705);
        let p = random_safe_params(&mut rng, 64);
        let xs: Vec<Ubig> = (0..4).map(|_| random_operand(&mut rng, &p)).collect();
        let ys: Vec<Ubig> = (0..4).map(|_| random_operand(&mut rng, &p)).collect();
        let want: Vec<Ubig> = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| mont_mul_alg2(&p, x, y))
            .collect();
        let mut e = EngineKind::Cios52.build(p.clone());
        assert_eq!(kernel_of(&e), Cios52Kernel::active());
        let mut demotions = 0;
        loop {
            let mut out = Vec::new();
            e.mont_mul_batch_into(&xs, &ys, &mut out);
            assert_eq!(out, want, "kernel {} wrong", kernel_of(&e).name());
            if !e.demote_kernel() {
                break;
            }
            demotions += 1;
        }
        assert_eq!(kernel_of(&e), Cios52Kernel::Portable, "floor is portable");
        assert_eq!(
            demotions + 1,
            Cios52Kernel::available().len(),
            "one demotion per tier"
        );
        assert_eq!(Cios52Kernel::Portable.weaker(), None);
    }

    #[test]
    fn every_available_kernel_matches_alg2_exhaustive_small() {
        // N = 13, l = 4 (full = 0, rem = 6): every x, y < 2N, and the
        // non-canonical < 2N representative must match exactly.
        let p = MontgomeryParams::new(&Ubig::from(13u64), 4);
        for &kernel in Cios52Kernel::available() {
            let mut e = AnyBatchEngine::with_cios52_kernel(p.clone(), kernel);
            for x in 0u64..26 {
                let xs: Vec<Ubig> = (0..26u64).map(Ubig::from).collect();
                let xx: Vec<Ubig> = (0..26).map(|_| Ubig::from(x)).collect();
                let got = e.mont_mul_batch(&xx, &xs);
                for y in 0u64..26 {
                    let want = mont_mul_alg2(&p, &Ubig::from(x), &Ubig::from(y));
                    assert_eq!(got[y as usize], want, "{} x={x} y={y}", kernel.name());
                }
            }
        }
    }

    #[test]
    fn every_available_kernel_matches_alg2_across_widths() {
        // Widths straddling the 52-bit digit boundary (l = 50 ⇒ rem =
        // 0, single digit), the 64-bit word boundary, and multi-digit
        // sizes; full lanes.
        let mut rng = StdRng::seed_from_u64(702);
        for l in [
            3usize, 30, 49, 50, 51, 62, 63, 64, 65, 100, 102, 103, 150, 256,
        ] {
            let p = random_safe_params(&mut rng, l);
            let xs: Vec<Ubig> = (0..MAX_LANES)
                .map(|_| random_operand(&mut rng, &p))
                .collect();
            let ys: Vec<Ubig> = (0..MAX_LANES)
                .map(|_| random_operand(&mut rng, &p))
                .collect();
            let want: Vec<Ubig> = xs
                .iter()
                .zip(&ys)
                .map(|(x, y)| mont_mul_alg2(&p, x, y))
                .collect();
            for &kernel in Cios52Kernel::available() {
                let mut e = AnyBatchEngine::with_cios52_kernel(p.clone(), kernel);
                let got = e.mont_mul_batch(&xs, &ys);
                assert_eq!(got, want, "{} l={l}", kernel.name());
            }
        }
    }

    #[test]
    fn every_available_kernel_accepts_tight_widths() {
        // No hardware-safety requirement; N ≳ ⅔·2^l widths included.
        let mut rng = StdRng::seed_from_u64(703);
        for bits in [64usize, 65, 128] {
            let mut n = Ubig::pow2(bits) - Ubig::one();
            if n.is_even() {
                n = n - Ubig::one();
            }
            let p = MontgomeryParams::tight(&n);
            assert!(!p.is_hardware_safe(), "bits={bits}");
            let xs: Vec<Ubig> = (0..8).map(|_| random_operand(&mut rng, &p)).collect();
            for &kernel in Cios52Kernel::available() {
                let mut e = AnyBatchEngine::with_cios52_kernel(p.clone(), kernel);
                let got = e.mont_mul_batch(&xs, &xs);
                for k in 0..8 {
                    assert_eq!(
                        got[k],
                        mont_mul_alg2(&p, &xs[k], &xs[k]),
                        "{} bits={bits} lane {k}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn partial_batches_and_engine_reuse() {
        let mut rng = StdRng::seed_from_u64(704);
        let p = random_safe_params(&mut rng, 48);
        let mut batch = EngineKind::Cios52.build(p.clone());
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
    fn outputs_feed_back_as_inputs() {
        // The Algorithm-2 closure property on every available kernel.
        let mut rng = StdRng::seed_from_u64(705);
        let p = random_safe_params(&mut rng, 70);
        let xs: Vec<Ubig> = (0..16).map(|_| random_operand(&mut rng, &p)).collect();
        for &kernel in Cios52Kernel::available() {
            let mut batch = AnyBatchEngine::with_cios52_kernel(p.clone(), kernel);
            let mut a = batch.mont_mul_batch(&xs, &xs);
            let mut want: Vec<Ubig> = xs.iter().map(|x| mont_mul_alg2(&p, x, x)).collect();
            for round in 0..4 {
                a = batch.mont_mul_batch(&a, &a);
                want = want.iter().map(|v| mont_mul_alg2(&p, v, v)).collect();
                assert_eq!(a, want, "{} round {round}", kernel.name());
            }
        }
    }

    #[test]
    fn hardened_outputs_are_canonical_on_every_kernel() {
        let mut rng = StdRng::seed_from_u64(708);
        for l in [3usize, 50, 51, 64, 103, 150] {
            let p = random_safe_params(&mut rng, l);
            let lanes = 64.min(2 * l);
            let xs: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            let ys: Vec<Ubig> = (0..lanes).map(|_| random_operand(&mut rng, &p)).collect();
            for &kernel in Cios52Kernel::available() {
                let mut e = AnyBatchEngine::with_cios52_kernel(p.clone(), kernel);
                e.set_hardening(HardeningMode::Hardened);
                let got = e.mont_mul_batch(&xs, &ys);
                for k in 0..lanes {
                    let want = mont_mul_alg2(&p, &xs[k], &ys[k]).rem(p.n());
                    assert_eq!(got[k], want, "{} lane {k} l={l}", kernel.name());
                    assert!(got[k] < *p.n(), "{} lane {k} l={l}", kernel.name());
                }
            }
        }
    }

    #[test]
    fn demotion_preserves_hardening() {
        let p = MontgomeryParams::new(&Ubig::from(13u64), 4);
        let mut e = EngineKind::Cios52.build(p);
        e.set_hardening(HardeningMode::Hardened);
        while e.demote_kernel() {
            assert_eq!(
                e.hardening(),
                HardeningMode::Hardened,
                "demotion to {} dropped hardening",
                kernel_of(&e).name()
            );
        }
        assert_eq!(e.hardening(), HardeningMode::Hardened);
    }

    #[test]
    #[should_panic(expected = "at most 64 lanes")]
    fn rejects_oversized_batch() {
        let mut rng = StdRng::seed_from_u64(706);
        let p = random_safe_params(&mut rng, 8);
        let xs: Vec<Ubig> = (0..65).map(|_| random_operand(&mut rng, &p)).collect();
        let ys = xs.clone();
        let _ = EngineKind::Cios52.build(p).mont_mul_batch(&xs, &ys);
    }

    #[test]
    #[should_panic(expected = "operands must be < 2N")]
    fn rejects_out_of_range_operand() {
        let mut rng = StdRng::seed_from_u64(707);
        let p = random_safe_params(&mut rng, 8);
        let bad = p.two_n();
        let _ = EngineKind::Cios52
            .build(p.clone())
            .mont_mul_batch(std::slice::from_ref(&bad), std::slice::from_ref(&bad));
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(Cios52Kernel::Portable.name(), "portable");
        assert_eq!(Cios52Kernel::Avx2.name(), "avx2");
        assert_eq!(Cios52Kernel::Ifma.name(), "ifma");
        let mut e = EngineKind::Cios52.build(MontgomeryParams::new(&Ubig::from(13u64), 4));
        assert!(BatchMontMul::name(&e).contains(kernel_of(&e).name()));
        assert!(BatchMontMul::name(&e).contains("radix-2^52"));
        let _ = e.mont_mul_batch(&[Ubig::one()], &[Ubig::one()]);
    }
}
