//! Backend dispatch: one [`EngineKind`] switch selecting which batch
//! Montgomery multiplier runs under every pooled entry point
//! (`try_mont_mul_many`, `try_modexp_many*`, the `mmm-rsa` and `mmm-ecc`
//! sessions), and the one engine shell, [`AnyBatchEngine`], every
//! backend runs in.
//!
//! Every backend implements the identical Algorithm-2 contract and
//! produces **bit-identical** results lane for lane (asserted by
//! `tests/radix_backend.rs`), so dispatch is purely a performance
//! decision. The backends differ only in the kernel inside the shell:
//!
//! * [`EngineKind::Cios`] — the radix-2⁶⁴ word-serial scan
//!   ([`crate::cios`]), the production default (~2·(l/64)² u64 MACs
//!   per multiplication);
//! * [`EngineKind::Cios52`] — the radix-2⁵² carry-save scan
//!   ([`crate::cios52`]) with explicit AVX2 / AVX-512-IFMA kernels
//!   selected at runtime ([`Cios52Kernel::available`]) and a portable
//!   auto-vectorizing fallback;
//! * [`EngineKind::BitSliced`] — the bit-serial systolic-array
//!   simulation ([`crate::batch`]), retained as the cycle-accurate
//!   fidelity oracle and for wave-model experiments (~l² single-bit
//!   cell updates per multiplication).
//!
//! The process-wide default is [`EngineKind::default_kind`]: CIOS,
//! overridable once per process with `MMM_ENGINE=bitsliced`,
//! `MMM_ENGINE=cios52` (or `MMM_ENGINE=cios`) — useful for A/B runs of
//! the full serving path without touching call sites. Call sites pick
//! a backend with
//! [`EngineConfig::with_backend`][crate::config::EngineConfig::with_backend]
//! or [`EnginePool::checkout_kind`][crate::pool::EnginePool::checkout_kind].

use crate::batch::{BitSlicedDatapath, MAX_LANES};
use crate::cios::CiosDatapath;
use crate::cios52::{Cios52Datapath, Cios52Kernel};
use crate::config::{EngineConfig, HardeningMode};
use crate::cost::mmm_cycles;
use crate::error::{validate_mont_batch, MmmError};
use crate::montgomery::MontgomeryParams;
use crate::traits::BatchMontMul;
use mmm_bigint::Ubig;
use std::str::FromStr;
use std::sync::OnceLock;

/// Which batch Montgomery multiplication backend to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Radix-2⁶⁴ CIOS word scan — the production serving backend.
    #[default]
    Cios,
    /// Radix-2⁵² carry-save CIOS scan with explicit SIMD kernels
    /// (portable / AVX2 / AVX-512-IFMA, chosen at runtime).
    Cios52,
    /// Bit-sliced systolic-array simulation — the cycle-accurate
    /// fidelity oracle (requires hardware-safe parameters).
    BitSliced,
}

impl EngineKind {
    /// Every backend, for cross-checking sweeps.
    pub const ALL: [EngineKind; 3] = [EngineKind::Cios, EngineKind::Cios52, EngineKind::BitSliced];

    /// Every backend this host can run. Each backend keeps a universal
    /// software path (the radix-2⁵² engine falls back to its portable
    /// kernel when AVX2/IFMA are absent), so today this equals
    /// [`EngineKind::ALL`] on every host — but sweeps should iterate
    /// it anyway so a future hardware-only backend filters itself out
    /// here. The underlying CPU feature detection is performed once
    /// per process and cached ([`Cios52Kernel::available`]); use that
    /// to learn *which* radix-2⁵² kernel (portable/avx2/ifma) actually
    /// runs.
    pub fn available() -> &'static [EngineKind] {
        // Force the one-time feature probe so the first benchmark
        // iteration doesn't pay for it.
        let _ = Cios52Kernel::available();
        &Self::ALL
    }

    /// Short stable name (also the accepted `MMM_ENGINE` values).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Cios => "cios",
            EngineKind::Cios52 => "cios52",
            EngineKind::BitSliced => "bitsliced",
        }
    }

    /// The process-wide default backend: [`EngineKind::Cios`], unless
    /// the `MMM_ENGINE` environment variable selects otherwise
    /// (`cios` / `cios52` / `bitsliced`). The environment is parsed **once** per
    /// process through [`EngineConfig::from_env`] — the single home of
    /// all `MMM_*` parsing — and the parse *result* is what gets
    /// cached, so an invalid environment produces the same clean panic
    /// message on every call instead of panicking inside a `OnceLock`
    /// initializer on first use only.
    ///
    /// # Panics
    /// Panics on an invalid `MMM_*` environment (the
    /// [`MmmError::Config`] text) — a typo must not silently turn an
    /// A/B comparison into CIOS-vs-CIOS. Fallible callers should use
    /// [`EngineConfig::from_env`] directly.
    pub fn default_kind() -> EngineKind {
        static FROM_ENV: OnceLock<Result<EngineKind, MmmError>> = OnceLock::new();
        match FROM_ENV.get_or_init(|| EngineConfig::from_env().map(|c| c.backend())) {
            Ok(kind) => *kind,
            Err(e) => panic!("{e}"),
        }
    }

    /// The next-weaker backend in the graceful-degradation chain used
    /// by the integrity layer ([`crate::verify::Quarantine`]): the
    /// SIMD-heavy radix-2⁵² scan degrades to the word-serial CIOS
    /// scan, which degrades to the bit-sliced systolic simulation (the
    /// slowest backend, but the one structurally closest to the
    /// paper's hardware and the anchor of the cross-backend test
    /// oracle). `None` once there is nothing simpler left.
    pub fn weaker(self) -> Option<EngineKind> {
        match self {
            EngineKind::Cios52 => Some(EngineKind::Cios),
            EngineKind::Cios => Some(EngineKind::BitSliced),
            EngineKind::BitSliced => None,
        }
    }

    /// Checks that this backend can run `params`: the bit-sliced
    /// systolic simulation rejects hardware-unsafe parameters with
    /// [`MmmError::HardwareUnsafeWidth`]; the CIOS backend accepts any
    /// valid parameters (there is no carry cell to overflow in a
    /// word-level scan). The one guard every fallible checkout/build
    /// path shares, so a future backend or safety predicate changes in
    /// exactly one place.
    pub fn ensure_supports(self, params: &MontgomeryParams) -> Result<(), MmmError> {
        if self == EngineKind::BitSliced && !params.is_hardware_safe() {
            return Err(MmmError::HardwareUnsafeWidth { l: params.l() });
        }
        Ok(())
    }

    /// Builds a fresh engine of this kind for `params` (the radix-2⁵²
    /// backend on the strongest kernel this host supports,
    /// [`Cios52Kernel::active`]), rejecting a bit-sliced request on
    /// hardware-unsafe parameters with [`MmmError::HardwareUnsafeWidth`]
    /// (see [`EngineKind::ensure_supports`]).
    pub fn try_build(self, params: MontgomeryParams) -> Result<AnyBatchEngine, MmmError> {
        self.ensure_supports(&params)?;
        let kernel = match self {
            EngineKind::Cios => Kernel::Cios(CiosDatapath::new(&params)),
            EngineKind::Cios52 => {
                Kernel::Cios52(Cios52Datapath::new(&params, Cios52Kernel::active()))
            }
            EngineKind::BitSliced => Kernel::BitSliced(BitSlicedDatapath::new(&params)),
        };
        Ok(AnyBatchEngine::new(params, kernel))
    }

    /// Builds a fresh engine of this kind for `params`.
    ///
    /// # Panics
    /// Panics if the bit-sliced backend is requested for parameters
    /// that are not hardware-safe; [`EngineKind::try_build`] is the
    /// fallible variant.
    pub fn build(self, params: MontgomeryParams) -> AnyBatchEngine {
        self.try_build(params).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl FromStr for EngineKind {
    type Err = MmmError;

    /// Parses the stable backend names (`cios`, `cios52`, `bitsliced`,
    /// with `bit-sliced` accepted as an alias) — the inverse of
    /// [`EngineKind::name`] and the parser behind the `MMM_ENGINE`
    /// environment override.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cios" => Ok(EngineKind::Cios),
            "cios52" => Ok(EngineKind::Cios52),
            "bitsliced" | "bit-sliced" => Ok(EngineKind::BitSliced),
            other => Err(MmmError::Config(format!(
                "unrecognized engine backend {other:?} (use cios|cios52|bitsliced)"
            ))),
        }
    }
}

/// The batch engine: one shell around one of three kernels. Every
/// backend shares the paper's MMMC contract (load X and Y, run, read
/// T), so the shell does everything around the kernel exactly once —
/// it owns the parameters, the hardening mode and the cycle counter,
/// validates each batch, and drives the kernel's stages:
///
/// ```text
/// validate → load (native layout) → run → [cond-sub if hardened] → store
/// ```
///
/// The native layouts are bit planes (bit-sliced), 64-bit limb rows
/// (CIOS) and 52-bit digit rows (CIOS-52). The pool stores and hands
/// out this one concrete type, so pooled call sites stay monomorphic
/// while the backend varies at runtime. Build engines with
/// [`EngineKind::build`] / [`EngineKind::try_build`], or pin a
/// radix-2⁵² kernel with [`AnyBatchEngine::with_cios52_kernel`].
#[derive(Debug, Clone)]
pub struct AnyBatchEngine {
    params: MontgomeryParams,
    kernel: Kernel,
    /// Constant-time mode: when hardened, every result is
    /// canonicalized `< N` before it leaves the kernel's buffers.
    hardening: HardeningMode,
    /// Simulated clock cycles consumed since build or the last loan
    /// reset — `Some` only for the cycle-accurate bit-sliced kernel.
    cycles: Option<u64>,
}

/// The kernel inside the shell: each variant owns its native buffers,
/// transposition and canonicalizing subtraction. The stage methods
/// below hold the only per-backend dispatch of the batch path.
#[derive(Debug, Clone)]
enum Kernel {
    Cios(CiosDatapath),
    Cios52(Cios52Datapath),
    BitSliced(BitSlicedDatapath),
}

impl Kernel {
    fn load(&mut self, xs: &[Ubig], ys: &[Ubig]) {
        match self {
            Kernel::Cios(k) => k.load(xs, ys),
            Kernel::Cios52(k) => k.load(xs, ys),
            Kernel::BitSliced(k) => k.load(xs, ys),
        }
    }

    fn run(&mut self) {
        match self {
            Kernel::Cios(k) => k.run(),
            Kernel::Cios52(k) => k.run(),
            Kernel::BitSliced(k) => k.run(),
        }
    }

    fn cond_sub(&mut self) {
        match self {
            Kernel::Cios(k) => k.cond_sub(),
            Kernel::Cios52(k) => k.cond_sub(),
            Kernel::BitSliced(k) => k.cond_sub(),
        }
    }

    fn store(&self, lanes: usize, out: &mut Vec<Ubig>) {
        match self {
            Kernel::Cios(k) => k.store(lanes, out),
            Kernel::Cios52(k) => k.store(lanes, out),
            Kernel::BitSliced(k) => k.store(lanes, out),
        }
    }
}

impl AnyBatchEngine {
    fn new(params: MontgomeryParams, kernel: Kernel) -> Self {
        // The CIOS scans are software backends, not cycle-accurate.
        let cycles = matches!(kernel, Kernel::BitSliced(_)).then_some(0);
        AnyBatchEngine {
            params,
            kernel,
            hardening: HardeningMode::Off,
            cycles,
        }
    }

    /// A radix-2⁵² engine pinned to `kernel` instead of the strongest
    /// one this host supports — how the kernel sweeps cross-check every
    /// available kernel against the oracle.
    ///
    /// # Panics
    /// Panics if `kernel` is not in [`Cios52Kernel::available`] on
    /// this host.
    pub fn with_cios52_kernel(params: MontgomeryParams, kernel: Cios52Kernel) -> Self {
        let datapath = Cios52Datapath::new(&params, kernel);
        AnyBatchEngine::new(params, Kernel::Cios52(datapath))
    }

    /// Which backend this engine is.
    pub fn kind(&self) -> EngineKind {
        match self.kernel {
            Kernel::Cios(_) => EngineKind::Cios,
            Kernel::Cios52(_) => EngineKind::Cios52,
            Kernel::BitSliced(_) => EngineKind::BitSliced,
        }
    }

    /// The SIMD kernel a radix-2⁵² engine currently runs (it changes
    /// on [`BatchMontMul::demote_kernel`]); `None` for the other
    /// backends.
    pub fn cios52_kernel(&self) -> Option<Cios52Kernel> {
        match &self.kernel {
            Kernel::Cios52(k) => Some(k.kernel()),
            Kernel::Cios(_) | Kernel::BitSliced(_) => None,
        }
    }

    /// Zeroes any per-loan observable state (the cycle counter, the
    /// hardening mode); recycled engines must look freshly built. In
    /// particular a hardened loan must not leak canonicalized (`< N`)
    /// outputs into the next, unhardened checkout — DESIGN.md §12.
    pub fn reset_loan_state(&mut self) {
        if let Some(cycles) = &mut self.cycles {
            *cycles = 0;
        }
        self.hardening = HardeningMode::Off;
    }

    /// The one batch pipeline every backend runs: validate, load into
    /// the kernel's native layout, run, canonicalize when hardened,
    /// store into `out` (recycling its limb buffers, so a warm call
    /// performs zero heap allocations — `tests/alloc_free.rs`).
    fn run_batch(&mut self, xs: &[Ubig], ys: &[Ubig], out: &mut Vec<Ubig>) -> Result<(), MmmError> {
        validate_mont_batch(&self.params, MAX_LANES, xs, ys)?;
        self.kernel.load(xs, ys);
        self.kernel.run();
        if self.hardening.is_hardened() {
            self.kernel.cond_sub();
        }
        self.kernel.store(xs.len(), out);
        if let Some(cycles) = &mut self.cycles {
            *cycles += mmm_cycles(self.params.l());
        }
        Ok(())
    }
}

impl BatchMontMul for AnyBatchEngine {
    fn params(&self) -> &MontgomeryParams {
        &self.params
    }

    fn max_lanes(&self) -> usize {
        MAX_LANES
    }

    fn mont_mul_batch(&mut self, xs: &[Ubig], ys: &[Ubig]) -> Vec<Ubig> {
        let mut out = Vec::with_capacity(xs.len());
        self.mont_mul_batch_into(xs, ys, &mut out);
        out
    }

    fn try_mont_mul_batch(&mut self, xs: &[Ubig], ys: &[Ubig]) -> Result<Vec<Ubig>, MmmError> {
        let mut out = Vec::with_capacity(xs.len());
        self.run_batch(xs, ys, &mut out)?;
        Ok(out)
    }

    fn mont_mul_batch_into(&mut self, xs: &[Ubig], ys: &[Ubig], out: &mut Vec<Ubig>) {
        self.run_batch(xs, ys, out)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    fn consumed_cycles(&self) -> Option<u64> {
        self.cycles
    }

    fn demote_kernel(&mut self) -> bool {
        // Only the radix-2⁵² backend has SIMD tiers to step down.
        match &mut self.kernel {
            Kernel::Cios52(k) => k.demote(),
            Kernel::Cios(_) | Kernel::BitSliced(_) => false,
        }
    }

    fn set_hardening(&mut self, mode: HardeningMode) {
        self.hardening = mode;
    }

    fn hardening(&self) -> HardeningMode {
        self.hardening
    }

    fn name(&self) -> &'static str {
        match &self.kernel {
            Kernel::Cios(_) => "radix-2^64 CIOS batch (64 lanes)",
            Kernel::Cios52(k) => k.name(),
            Kernel::BitSliced(_) => "bit-sliced batch (64 lanes)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modgen::{random_operand, random_safe_params};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_kind_is_cios_unless_env_overrides() {
        // Pin the actual dispatch default (not just the derive): with
        // MMM_ENGINE unset — the CI case — default_kind() must be the
        // word-serial production backend; under the documented A/B
        // override it must follow the variable.
        let want = match std::env::var("MMM_ENGINE").as_deref() {
            Ok("bitsliced") | Ok("bit-sliced") => EngineKind::BitSliced,
            Ok("cios52") => EngineKind::Cios52,
            _ => EngineKind::Cios,
        };
        assert_eq!(EngineKind::default_kind(), want);
        assert_eq!(EngineKind::default(), EngineKind::Cios, "derive default");
    }

    #[test]
    fn kinds_build_matching_engines() {
        let mut rng = StdRng::seed_from_u64(601);
        let p = random_safe_params(&mut rng, 24);
        for kind in EngineKind::ALL {
            let engine = kind.build(p.clone());
            assert_eq!(engine.kind(), kind);
            assert_eq!(engine.max_lanes(), 64);
            assert_eq!(BatchMontMul::params(&engine), &p);
        }
    }

    #[test]
    fn all_backends_agree_through_the_dispatch_type() {
        let mut rng = StdRng::seed_from_u64(602);
        let p = random_safe_params(&mut rng, 40);
        let xs: Vec<Ubig> = (0..10).map(|_| random_operand(&mut rng, &p)).collect();
        let ys: Vec<Ubig> = (0..10).map(|_| random_operand(&mut rng, &p)).collect();
        let mut cios = EngineKind::Cios.build(p.clone());
        let want = cios.mont_mul_batch(&xs, &ys);
        assert_eq!(cios.consumed_cycles(), None);
        for kind in EngineKind::ALL {
            let mut e = kind.build(p.clone());
            assert_eq!(e.mont_mul_batch(&xs, &ys), want, "{}", kind.name());
            assert_eq!(
                e.consumed_cycles().is_some(),
                kind == EngineKind::BitSliced,
                "only the systolic simulation is cycle-accurate"
            );
        }
    }

    #[test]
    fn weaker_chain_is_acyclic_and_ends_at_the_systolic_oracle() {
        assert_eq!(EngineKind::Cios52.weaker(), Some(EngineKind::Cios));
        assert_eq!(EngineKind::Cios.weaker(), Some(EngineKind::BitSliced));
        assert_eq!(EngineKind::BitSliced.weaker(), None);
        for kind in EngineKind::ALL {
            let mut steps = 0;
            let mut cur = Some(kind);
            while let Some(k) = cur {
                cur = k.weaker();
                steps += 1;
                assert!(steps <= EngineKind::ALL.len(), "chain must terminate");
            }
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EngineKind::Cios.name(), "cios");
        assert_eq!(EngineKind::Cios52.name(), "cios52");
        assert_eq!(EngineKind::BitSliced.name(), "bitsliced");
    }

    #[test]
    fn available_covers_every_backend_on_software_hosts() {
        // Every current backend has a universal software path, so the
        // host-availability sweep must equal ALL (and be stable —
        // detection is cached process-wide).
        assert_eq!(EngineKind::available(), &EngineKind::ALL);
        assert_eq!(
            EngineKind::available().as_ptr(),
            EngineKind::available().as_ptr()
        );
    }

    #[test]
    fn from_str_roundtrips_names_and_rejects_typos() {
        for kind in EngineKind::ALL {
            assert_eq!(kind.name().parse::<EngineKind>(), Ok(kind));
        }
        assert_eq!(
            "bit-sliced".parse::<EngineKind>(),
            Ok(EngineKind::BitSliced)
        );
        // The typo-must-not-become-CIOS-vs-CIOS guarantee, now as a
        // returned error instead of a OnceLock panic.
        let err = "coos".parse::<EngineKind>().unwrap_err();
        assert!(matches!(err, MmmError::Config(_)), "{err}");
        assert!(err.to_string().contains("coos"), "{err}");
    }

    #[test]
    fn hardening_threads_through_dispatch_and_resets_with_the_loan() {
        use crate::config::HardeningMode;
        let mut rng = StdRng::seed_from_u64(603);
        let p = random_safe_params(&mut rng, 40);
        let xs: Vec<Ubig> = (0..8).map(|_| random_operand(&mut rng, &p)).collect();
        let ys: Vec<Ubig> = (0..8).map(|_| random_operand(&mut rng, &p)).collect();
        for kind in EngineKind::ALL {
            let mut e = kind.build(p.clone());
            assert_eq!(e.hardening(), HardeningMode::Off);
            e.set_hardening(HardeningMode::Hardened);
            assert_eq!(e.hardening(), HardeningMode::Hardened, "{}", kind.name());
            for out in e.mont_mul_batch(&xs, &ys) {
                assert!(
                    out < *p.n(),
                    "hardened {} output not canonical",
                    kind.name()
                );
            }
            // A recycled loan must come back unhardened.
            e.reset_loan_state();
            assert_eq!(e.hardening(), HardeningMode::Off, "{}", kind.name());
        }
    }

    #[test]
    fn try_build_rejects_bitsliced_on_unsafe_params() {
        // 251 at l=8: 3N-1 = 752 > 2^9 — the leftmost cell can drop a
        // carry, so the systolic simulation must refuse while the
        // word-level CIOS scan accepts.
        let p = MontgomeryParams::tight(&Ubig::from(251u64));
        assert!(!p.is_hardware_safe());
        assert!(matches!(
            EngineKind::BitSliced.try_build(p.clone()),
            Err(MmmError::HardwareUnsafeWidth { l: 8 })
        ));
        assert!(EngineKind::Cios.try_build(p).is_ok());
    }
}
