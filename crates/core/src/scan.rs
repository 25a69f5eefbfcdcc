//! The workload-neutral fixed-window scan core: the lockstep k-ary
//! left-to-right schedule that [`crate::expo_batch`] built for RSA,
//! lifted out so **any** group operation can drive it.
//!
//! The scan is generic over the group: it never touches a Montgomery
//! engine, a power table, or a point table. It decides *when* the
//! group operations run, and *how* a secret digit may read a table —
//! exactly the parts that must be shared for "one array, many
//! workloads" to hold:
//!
//! * [`ScalarSet`] — the scalars driving the lanes, per-lane or shared
//!   (one key, many requests), with window-digit extraction;
//! * [`WindowScanClient`] — what a workload plugs in: initialize the
//!   accumulator from the top window's digits, double it (batched
//!   squaring for modexp, batched point doubling for ECC), and combine
//!   it with the table entries the current digits select;
//! * [`run_windowed_scan`] — the driver producing the schedule:
//!   `⌈t/w⌉` windows, the top one a pure table lookup, each further
//!   one `w` doubles plus one combine, skipped when every lane's digit
//!   is zero — unless `never_skip` (the hardened mode contract) forces
//!   the combine on every window;
//! * [`select_entry`] — the one secret-digit table reader: a direct
//!   index when plain, a masked full-table sweep when hardened, so
//!   every client's memory trace is digit-independent under hardening.
//!
//! The cost model lives here too, in group-operation counts
//! ([`fixed_window_schedule`]) with a weighted argmin
//! ([`best_fixed_window_weighted`]) so each workload can price the
//! operations in its own currency: for modexp a table entry, a double
//! and a combine all cost one batched multiplication; for Jacobian ECC
//! a double costs ~7 field multiplications and an add ~16. The RSA
//! cost model ([`expected_fixed_window_muls`] / [`best_fixed_window`])
//! is the unit-weight instance of this one, so both paths keep a single
//! tuning policy (pinned by the `BatchExpoStats` reconciliation tests).
//!
//! At `w = 1` the scan is the paper's Algorithm 3, square-and-multiply
//! from the top bit, with the top bit a table lookup instead of a
//! squaring of the Montgomery one.

use mmm_bigint::ct::{or_assign_masked, Choice};
use mmm_bigint::limbs::Limb;
use mmm_bigint::Ubig;

/// The scalars of one batched scan: either one scalar per lane or a
/// single scalar shared by every lane. The shared form exists so a
/// serving path never materializes 64 clones of a private exponent
/// per shard just to satisfy a per-lane signature.
#[derive(Debug, Clone, Copy)]
pub enum ScalarSet<'a> {
    /// `ks[k]` drives lane `k`.
    PerLane(&'a [Ubig]),
    /// One scalar drives every lane.
    Shared(&'a Ubig),
}

impl ScalarSet<'_> {
    /// The scalar feeding lane `k`.
    pub fn get(&self, k: usize) -> &Ubig {
        match self {
            ScalarSet::PerLane(ks) => &ks[k],
            ScalarSet::Shared(k0) => k0,
        }
    }

    /// Bit length of the longest scalar in the set.
    pub fn max_bit_len(&self) -> usize {
        match self {
            ScalarSet::PerLane(ks) => ks.iter().map(Ubig::bit_len).max().unwrap_or(0),
            ScalarSet::Shared(k0) => k0.bit_len(),
        }
    }

    /// Window digit of lane `k` at window index `win`: the bits
    /// `[win·w, win·w + w)` of the lane's scalar, MSB first (zero
    /// beyond the scalar's length).
    pub fn digit(&self, k: usize, win: usize, window: usize) -> usize {
        let base = win * window;
        let scalar = self.get(k);
        (0..window)
            .rev()
            .fold(0usize, |d, b| (d << 1) | usize::from(scalar.bit(base + b)))
    }
}

/// What a workload plugs into the scan: the three group-operation
/// hooks the driver schedules. The client owns the accumulator and the
/// precomputed table (powers for modexp, point multiples for ECC); the
/// driver only tells it when to act and which (secret) digits select
/// table entries. Clients read the table through [`select_entry`] —
/// the one secret-digit table reader, a direct index when unhardened
/// and a constant-time full-table sweep when hardened — so no client
/// indexes memory by a secret digit itself.
pub trait WindowScanClient {
    /// Initializes the accumulator from the **top** window's digits:
    /// lane `k` becomes its table entry for `digits[k]` (digit 0 is
    /// the group identity). Called exactly once, before any
    /// [`WindowScanClient::double`]. When the scalar set is all-zero
    /// the driver still calls this with all-zero digits and then runs
    /// no further steps, so clients must map digit 0 to the identity
    /// even when they built no table.
    fn init(&mut self, digits: &[usize]);

    /// One batched doubling of the accumulator (squaring for modexp,
    /// point doubling for ECC).
    fn double(&mut self);

    /// One batched combine: lane `k` of the accumulator absorbs its
    /// table entry for `digits[k]` (digit-0 lanes absorb the identity,
    /// keeping the lockstep schedule uniform).
    fn combine(&mut self, digits: &[usize]);
}

/// Reads the table entry a secret window digit `d` selects into `out`
/// — the one secret-digit table reader every scan client shares.
/// `entry(i)` is the candidate for digit value `i`, for
/// `i in 0..entries`.
///
/// Unhardened, this is a direct index: `out` becomes a copy of
/// `entry(d)`. Hardened, it is a branchless **full-table sweep**: `buf`
/// is zeroed, then every entry is loaded and OR-accumulated under a
/// mask that is all-ones only where `i == d`
/// ([`Choice::ct_eq_usize`]), so the loads performed are the same for
/// every digit and `d` flows only through the masks. `buf` must be at
/// least as wide as every entry (the modulus' limb count plus one
/// covers the `< 2N` band).
pub fn select_entry<'t>(
    entries: usize,
    entry: impl Fn(usize) -> &'t Ubig,
    d: usize,
    hardened: bool,
    buf: &mut [Limb],
    out: &mut Ubig,
) {
    if hardened {
        buf.fill(0);
        for i in 0..entries {
            or_assign_masked(buf, entry(i).limbs(), Choice::ct_eq_usize(i, d));
        }
        *out = Ubig::from_limbs(buf.to_vec());
    } else {
        out.clone_from(entry(d));
    }
}

/// The schedule actually executed by one [`run_windowed_scan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanStats {
    /// Batched doublings performed (`w` per non-top window).
    pub doublings: u64,
    /// Batched combines performed.
    pub combines: u64,
    /// Combine steps skipped because every lane's digit was 0 (always
    /// 0 under `never_skip`).
    pub skipped_combines: u64,
}

/// Drives one lockstep fixed-window scan over `lanes` lanes: extracts
/// the window digits of every lane, initializes the client from the
/// top window, then per lower window issues `window` doubles and one
/// combine — skipped when all digits are zero, unless `never_skip`
/// (the hardened-mode contract: the schedule must not depend on the
/// OR of the lanes' secret digits).
///
/// The caller validates `window ∈ [1, 8]` and the lane shapes; this
/// driver is schedule-only and `debug_assert!`s the window range.
pub fn run_windowed_scan<C: WindowScanClient>(
    client: &mut C,
    lanes: usize,
    scalars: &ScalarSet<'_>,
    window: usize,
    never_skip: bool,
) -> ScanStats {
    debug_assert!((1..=8).contains(&window), "window must be in 1..=8");
    let mut stats = ScanStats::default();
    let t = scalars.max_bit_len();
    let windows = t.div_ceil(window);

    let mut digits = vec![0usize; lanes];
    let fill = |digits: &mut [usize], win: usize| {
        for (k, d) in digits.iter_mut().enumerate() {
            *d = scalars.digit(k, win, window);
        }
    };

    // Top window: a pure table lookup (doubling the identity would be
    // wasted work). All-zero scalar sets (`windows == 0`) initialize
    // every lane to the identity and run nothing else.
    if windows == 0 {
        client.init(&digits);
        return stats;
    }
    fill(&mut digits, windows - 1);
    client.init(&digits);

    for win in (0..windows - 1).rev() {
        for _ in 0..window {
            client.double();
            stats.doublings += 1;
        }
        fill(&mut digits, win);
        if never_skip || digits.iter().any(|&d| d != 0) {
            client.combine(&digits);
            stats.combines += 1;
        } else {
            stats.skipped_combines += 1;
        }
    }
    stats
}

/// The group-operation counts of a full (skip-free) `w`-window scan of
/// a `t`-bit scalar — the workload-neutral cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedWindowSchedule {
    /// Table entries built beyond the free ones (the identity and the
    /// base itself): `2^w − 2`, every digit value materialized so
    /// digit selection never perturbs the schedule.
    pub table_entries: u64,
    /// Doublings: `(⌈t/w⌉ − 1)·w` (the top window is a table lookup).
    pub doublings: u64,
    /// Combine steps: `⌈t/w⌉ − 1`, charged for *every* window because
    /// lanes run in lockstep and a window is only skippable when all
    /// lanes have digit 0.
    pub combines: u64,
}

/// Computes the [`FixedWindowSchedule`] for a `t`-bit scalar at window
/// width `w ∈ [1, 8]`. A zero-bit scalar runs nothing.
///
/// # Panics
/// Panics if `w ∉ [1, 8]`.
pub fn fixed_window_schedule(t: usize, w: usize) -> FixedWindowSchedule {
    assert!((1..=8).contains(&w), "window must be in 1..=8");
    if t == 0 {
        return FixedWindowSchedule {
            table_entries: 0,
            doublings: 0,
            combines: 0,
        };
    }
    let windows = t.div_ceil(w);
    FixedWindowSchedule {
        table_entries: (1u64 << w) - 2,
        doublings: ((windows - 1) * w) as u64,
        combines: (windows - 1) as u64,
    }
}

/// The window width `w ∈ [1, 8]` minimizing the weighted cost
/// `table_entries·table_cost + doublings·double_cost +
/// combines·combine_cost` of [`fixed_window_schedule`] for a `t`-bit
/// scalar. Ties break toward the smaller width (first minimum);
/// [`best_fixed_window`] is the unit-weight instance.
pub fn best_fixed_window_weighted(
    t: usize,
    table_cost: f64,
    double_cost: f64,
    combine_cost: f64,
) -> usize {
    let cost = |w: usize| -> f64 {
        let s = fixed_window_schedule(t, w);
        s.table_entries as f64 * table_cost
            + s.doublings as f64 * double_cost
            + s.combines as f64 * combine_cost
    };
    (1..=8)
        .min_by(|&a, &b| cost(a).partial_cmp(&cost(b)).unwrap())
        .unwrap()
}

/// Expected **batched** Montgomery-multiplication count of the
/// lockstep modexp scan
/// ([`crate::expo_batch::BatchModExp::try_modexp`]) for a `t`-bit
/// exponent at window `w`: the unit-weight [`fixed_window_schedule`]
/// (a table entry, a doubling and a combine each cost one batched
/// multiplication) plus the two domain transforms. Every window is
/// charged a combine, because lanes scan in lockstep and a window is
/// only skippable when **all** lanes have digit 0.
pub fn expected_fixed_window_muls(t: usize, w: usize) -> f64 {
    let s = fixed_window_schedule(t, w);
    (s.table_entries + s.doublings + s.combines) as f64 + 2.0
}

/// The window width minimizing [`expected_fixed_window_muls`] for a
/// `t`-bit exponent: the unit-weight instance of
/// [`best_fixed_window_weighted`], so RSA and every other scan tenant
/// (batched ECC, with point-operation weights) share one tuning
/// policy.
pub fn best_fixed_window(t: usize) -> usize {
    best_fixed_window_weighted(t, 1.0, 1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny test client over u64 multiplication mod 2^64: the table
    /// is base^d, double squares, combine multiplies — enough to pin
    /// the schedule without any engine.
    struct U64Client {
        table: Vec<Vec<u64>>, // table[d][k] = base_k^d
        acc: Vec<u64>,
        log: Vec<String>,
    }

    impl U64Client {
        fn new(bases: &[u64], window: usize, t: usize) -> Self {
            let len = if t == 0 { 0 } else { 1usize << window };
            let mut table = Vec::new();
            for d in 0..len {
                table.push(
                    bases
                        .iter()
                        .map(|b| b.wrapping_pow(d as u32))
                        .collect::<Vec<u64>>(),
                );
            }
            U64Client {
                table,
                acc: vec![1; bases.len()],
                log: Vec::new(),
            }
        }
    }

    impl WindowScanClient for U64Client {
        fn init(&mut self, digits: &[usize]) {
            self.log.push(format!("init{digits:?}"));
            for (k, &d) in digits.iter().enumerate() {
                self.acc[k] = if self.table.is_empty() {
                    1
                } else {
                    self.table[d][k]
                };
            }
        }
        fn double(&mut self) {
            self.log.push("dbl".into());
            for a in &mut self.acc {
                *a = a.wrapping_mul(*a);
            }
        }
        fn combine(&mut self, digits: &[usize]) {
            self.log.push(format!("comb{digits:?}"));
            for (k, &d) in digits.iter().enumerate() {
                self.acc[k] = self.acc[k].wrapping_mul(self.table[d][k]);
            }
        }
    }

    #[test]
    fn scan_computes_powers() {
        let bases = [3u64, 7, 1, 10];
        let exps = [
            Ubig::from(29u64),
            Ubig::zero(),
            Ubig::from(5u64),
            Ubig::from(64u64),
        ];
        for w in 1..=5 {
            let mut client = U64Client::new(&bases, w, 7);
            let stats = run_windowed_scan(&mut client, 4, &ScalarSet::PerLane(&exps), w, false);
            for (k, b) in bases.iter().enumerate() {
                let e = exps[k].to_u64().unwrap() as u32;
                assert_eq!(client.acc[k], b.wrapping_pow(e), "w={w} lane {k}");
            }
            assert_eq!(stats.doublings % w as u64, 0);
        }
    }

    #[test]
    fn shared_matches_per_lane_clones_schedule_and_result() {
        let bases = [3u64, 5, 9];
        let e = Ubig::from(0b1011_0110u64);
        let es = vec![e.clone(); 3];
        for w in [1usize, 3, 4] {
            let mut a = U64Client::new(&bases, w, e.bit_len());
            let sa = run_windowed_scan(&mut a, 3, &ScalarSet::Shared(&e), w, false);
            let mut b = U64Client::new(&bases, w, e.bit_len());
            let sb = run_windowed_scan(&mut b, 3, &ScalarSet::PerLane(&es), w, false);
            assert_eq!(a.acc, b.acc, "w={w}");
            assert_eq!(sa, sb, "w={w}");
            assert_eq!(a.log, b.log, "w={w}: identical call sequence");
        }
    }

    #[test]
    fn zero_scalars_initialize_identity_and_run_nothing() {
        let mut client = U64Client::new(&[9, 4], 4, 0);
        let stats = run_windowed_scan(
            &mut client,
            2,
            &ScalarSet::PerLane(&[Ubig::zero(), Ubig::zero()]),
            4,
            false,
        );
        assert_eq!(client.acc, vec![1, 1]);
        assert_eq!(stats, ScanStats::default());
        assert_eq!(client.log, vec!["init[0, 0]"]);
    }

    #[test]
    fn never_skip_forces_every_combine() {
        // A sparse scalar with all-zero windows: the plain scan skips
        // them, the never-skip scan combines on every window — same
        // results.
        let bases = [6u64];
        let e = Ubig::from(1u64 << 12); // digits 1,0,0,0 at w=3
        for w in [2usize, 3] {
            let mut plain = U64Client::new(&bases, w, e.bit_len());
            let sp = run_windowed_scan(&mut plain, 1, &ScalarSet::Shared(&e), w, false);
            let mut hard = U64Client::new(&bases, w, e.bit_len());
            let sh = run_windowed_scan(&mut hard, 1, &ScalarSet::Shared(&e), w, true);
            assert_eq!(plain.acc, hard.acc, "w={w}");
            assert!(sp.skipped_combines > 0, "w={w}");
            assert_eq!(sh.skipped_combines, 0, "w={w}");
            assert_eq!(sh.combines, sp.combines + sp.skipped_combines, "w={w}");
        }
    }

    #[test]
    fn schedule_counts_match_driver() {
        let bases = [3u64; 5];
        for (t, w) in [(64usize, 4usize), (33, 5), (7, 1), (8, 8)] {
            let mut es: Vec<Ubig> = (0..5).map(|k| Ubig::from((k as u64) + 2)).collect();
            // Pin the max bit length to exactly t.
            es[0] = {
                let mut v = Ubig::from(0b101u64);
                v.set_bit(t - 1, true);
                v
            };
            let mut client = U64Client::new(&bases, w, t);
            let stats = run_windowed_scan(&mut client, 5, &ScalarSet::PerLane(&es), w, true);
            let model = fixed_window_schedule(t, w);
            assert_eq!(stats.doublings, model.doublings, "t={t} w={w}");
            assert_eq!(stats.combines, model.combines, "t={t} w={w}");
        }
    }

    #[test]
    fn weighted_window_grows_with_combine_cost() {
        // The pricier a combine relative to a double, the wider the
        // window should go (fewer combines, same doublings).
        let cheap = best_fixed_window_weighted(256, 16.0, 7.0, 16.0);
        let unit = best_fixed_window_weighted(256, 1.0, 1.0, 1.0);
        assert!(cheap >= unit, "ECC weighting {cheap} vs unit {unit}");
        assert!((1..=8).contains(&cheap));
    }

    #[test]
    fn fixed_window_model_beats_multiply_always_at_rsa_sizes() {
        for t in [512usize, 1024, 2048] {
            let w = best_fixed_window(t);
            assert!((4..=8).contains(&w), "t={t} picked w={w}");
            // Multiply-always is the w=1 instance of the same model.
            let always = expected_fixed_window_muls(t, 1);
            let windowed = expected_fixed_window_muls(t, w);
            assert!(
                windowed < always * 0.66,
                "t={t}: windowed {windowed:.0} vs multiply-always {always:.0}"
            );
        }
        // Degenerate exponents stay sane.
        assert_eq!(expected_fixed_window_muls(0, 3), 2.0);
        assert!(best_fixed_window(1) >= 1);
    }

    #[test]
    fn hardened_selection_matches_direct_index() {
        let table: Vec<Ubig> = [0u64, 7, 1 << 40, u64::MAX]
            .iter()
            .map(|&v| Ubig::from(v).shl_bits(3))
            .collect();
        let mut buf = vec![0 as Limb; 3];
        for d in 0..table.len() {
            for hardened in [false, true] {
                let mut out = Ubig::from(99u64);
                select_entry(table.len(), |i| &table[i], d, hardened, &mut buf, &mut out);
                assert_eq!(out, table[d], "d={d} hardened={hardened}");
            }
        }
    }

    #[test]
    fn digit_extraction_matches_bits() {
        let k = Ubig::from(0b1101_0110_1011u64);
        let set = ScalarSet::Shared(&k);
        assert_eq!(set.digit(0, 0, 4), 0b1011);
        assert_eq!(set.digit(0, 1, 4), 0b0110);
        assert_eq!(set.digit(0, 2, 4), 0b1101);
        assert_eq!(set.digit(0, 3, 4), 0);
        // Shared sets ignore the lane index.
        assert_eq!(set.digit(17, 1, 4), 0b0110);
    }
}
