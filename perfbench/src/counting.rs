//! A [`BatchMontMul`] wrapper that counts and times every batch call
//! of the engine it wraps, so the traced replay can report exact
//! multiplication counts and the share of a scan spent in the kernel.
//! Every trait method is forwarded, so a wrapped engine behaves exactly
//! like the bare one (the replay asserts bit-identical outputs).

use mmm_bigint::Ubig;
use mmm_core::montgomery::MontgomeryParams;
use mmm_core::{BatchMontMul, HardeningMode, MmmError};
use std::time::{Duration, Instant};

#[derive(Debug)]
pub struct Counting<E> {
    inner: E,
    /// Batch multiplications issued through this wrapper.
    pub calls: u64,
    /// Lanes summed over those calls.
    pub lanes: u64,
    /// Wall time spent inside the wrapped engine's batch calls.
    pub busy: Duration,
}

impl<E: BatchMontMul> Counting<E> {
    pub fn new(inner: E) -> Self {
        Counting {
            inner,
            calls: 0,
            lanes: 0,
            busy: Duration::ZERO,
        }
    }

    pub fn reset(&mut self) {
        self.calls = 0;
        self.lanes = 0;
        self.busy = Duration::ZERO;
    }

    fn tally<T>(&mut self, lanes: usize, f: impl FnOnce(&mut E) -> T) -> T {
        let t = Instant::now();
        let out = f(&mut self.inner);
        self.busy += t.elapsed();
        self.calls += 1;
        self.lanes += lanes as u64;
        out
    }
}

impl<E: BatchMontMul> BatchMontMul for Counting<E> {
    fn params(&self) -> &MontgomeryParams {
        self.inner.params()
    }

    fn max_lanes(&self) -> usize {
        self.inner.max_lanes()
    }

    fn mont_mul_batch(&mut self, xs: &[Ubig], ys: &[Ubig]) -> Vec<Ubig> {
        self.tally(xs.len(), |e| e.mont_mul_batch(xs, ys))
    }

    fn try_mont_mul_batch(&mut self, xs: &[Ubig], ys: &[Ubig]) -> Result<Vec<Ubig>, MmmError> {
        self.tally(xs.len(), |e| e.try_mont_mul_batch(xs, ys))
    }

    fn mont_mul_batch_into(&mut self, xs: &[Ubig], ys: &[Ubig], out: &mut Vec<Ubig>) {
        self.tally(xs.len(), |e| e.mont_mul_batch_into(xs, ys, out));
    }

    fn consumed_cycles(&self) -> Option<u64> {
        self.inner.consumed_cycles()
    }

    fn demote_kernel(&mut self) -> bool {
        self.inner.demote_kernel()
    }

    fn set_hardening(&mut self, mode: HardeningMode) {
        self.inner.set_hardening(mode);
    }

    fn hardening(&self) -> HardeningMode {
        self.inner.hardening()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
