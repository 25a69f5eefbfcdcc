//! Serving-layer fault injection: deterministic, per-server switches
//! that make the failure modes of [`crate::serve`] *testable*.
//!
//! A robustness layer that is never exercised is decoration. Every
//! [`Server`](crate::serve::Server) owns one [`FaultPlan`]
//! (reachable via [`Server::faults`](crate::serve::Server::faults));
//! tests and the `batch_server` load generator arm it to produce the
//! three production failure shapes on demand:
//!
//! * **Worker panics** ([`FaultPlan::inject_flush_panics`]) — the next
//!   `n` flushes panic *outside* the per-flush `catch_unwind`, so the
//!   panic unwinds the whole worker thread. This exercises the
//!   outermost safety nets at once: the worker supervisor loop
//!   restarts the thread, and the in-flight shard's responders
//!   resolve their tickets with
//!   [`MmmError::WorkerPanicked`](crate::MmmError::WorkerPanicked) from `Drop` —
//!   every caller is answered.
//! * **Flush stalls** ([`FaultPlan::inject_flush_stalls`]) — the next
//!   `n` flushes sleep before computing, simulating a slow or wedged
//!   backend; deadline-driven flushing and queue backpressure must
//!   absorb the stall without losing or reordering responses.
//! * **Queue-full storms** ([`FaultPlan::inject_queue_full`]) — the
//!   next `n` submissions are refused as if the bounded queue were
//!   full, producing `MmmError::Overloaded` bursts without needing to
//!   actually saturate a queue.
//!
//! The plan is **inert by default**: the hot path pays one relaxed
//! atomic load per flush/submission when nothing is armed (the
//! counters only move under `fetch_update` once a test arms them).
//! The switches are compiled in unconditionally so integration tests
//! and examples can drive them through the public API without a
//! feature flag — nothing here can fire unless explicitly armed, and
//! arming is scoped to one server, so parallel tests never interfere.
//!
//! ## Atomic-ordering convention
//!
//! The same convention as the serve counters and the engine-level
//! harness ([`crate::verify::faults`]): **arming switches** are a
//! handoff protocol, so they keep `fetch_update(AcqRel, Acquire)`
//! (the armer's writes — e.g. the stall duration — must be visible to
//! the worker that wins the slot); **fired counters** are monotone
//! diagnostics read after the fact, so they use `Relaxed` everywhere.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Per-server fault switches. See the module docs; all methods are
/// thread-safe and may be called while the server is serving.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Remaining flushes that must panic.
    panic_flushes: AtomicUsize,
    /// Remaining flushes that must stall.
    stall_flushes: AtomicUsize,
    /// Stall length, microseconds.
    stall_us: AtomicU64,
    /// Remaining submissions that must see a full queue.
    full_submits: AtomicUsize,
    /// Observability: injections that actually fired.
    panics_fired: AtomicUsize,
    stalls_fired: AtomicUsize,
    fulls_fired: AtomicUsize,
}

/// Decrements `counter` if it is positive; true when this caller won
/// one of the armed slots.
fn take_one(counter: &AtomicUsize) -> bool {
    counter
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
        .is_ok()
}

impl FaultPlan {
    /// Arms the next `n` flushes (across all workers of this server)
    /// to panic.
    pub fn inject_flush_panics(&self, n: usize) {
        self.panic_flushes.fetch_add(n, Ordering::AcqRel);
    }

    /// Arms the next `n` flushes to sleep for `stall` before running.
    pub fn inject_flush_stalls(&self, stall: Duration, n: usize) {
        self.stall_us.store(
            stall.as_micros().min(u64::MAX as u128) as u64,
            Ordering::Release,
        );
        self.stall_flushes.fetch_add(n, Ordering::AcqRel);
    }

    /// Arms the next `n` submissions to be refused as overloaded.
    pub fn inject_queue_full(&self, n: usize) {
        self.full_submits.fetch_add(n, Ordering::AcqRel);
    }

    /// Disarms every pending injection (fired counters are kept).
    pub fn reset(&self) {
        self.panic_flushes.store(0, Ordering::Release);
        self.stall_flushes.store(0, Ordering::Release);
        self.full_submits.store(0, Ordering::Release);
    }

    /// Injected panics that actually fired.
    pub fn panics_fired(&self) -> usize {
        self.panics_fired.load(Ordering::Relaxed)
    }

    /// Injected stalls that actually fired.
    pub fn stalls_fired(&self) -> usize {
        self.stalls_fired.load(Ordering::Relaxed)
    }

    /// Injected queue-full refusals that actually fired.
    pub fn fulls_fired(&self) -> usize {
        self.fulls_fired.load(Ordering::Relaxed)
    }

    /// Worker-side hook, called at the top of every flush. Applies an
    /// armed stall, then an armed panic.
    ///
    /// # Panics
    /// Panics (by design) when a flush panic is armed.
    pub(crate) fn on_flush(&self) {
        if take_one(&self.stall_flushes) {
            self.stalls_fired.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(self.stall_us.load(Ordering::Acquire)));
        }
        if take_one(&self.panic_flushes) {
            self.panics_fired.fetch_add(1, Ordering::Relaxed);
            panic!("injected worker panic (mmm-core::serve::faults)");
        }
    }

    /// Submit-side hook: true when this submission must be refused as
    /// overloaded.
    pub(crate) fn on_submit(&self) -> bool {
        if take_one(&self.full_submits) {
            self.fulls_fired.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_by_default() {
        let plan = FaultPlan::default();
        plan.on_flush();
        assert!(!plan.on_submit());
        assert_eq!(plan.panics_fired(), 0);
        assert_eq!(plan.stalls_fired(), 0);
        assert_eq!(plan.fulls_fired(), 0);
    }

    #[test]
    fn armed_panic_fires_exactly_n_times() {
        let plan = FaultPlan::default();
        plan.inject_flush_panics(2);
        for _ in 0..2 {
            let r = std::panic::catch_unwind(|| plan.on_flush());
            assert!(r.is_err(), "armed flush must panic");
        }
        plan.on_flush(); // disarmed again
        assert_eq!(plan.panics_fired(), 2);
    }

    #[test]
    fn armed_stall_sleeps() {
        let plan = FaultPlan::default();
        plan.inject_flush_stalls(Duration::from_millis(15), 1);
        let t0 = std::time::Instant::now();
        plan.on_flush();
        assert!(t0.elapsed() >= Duration::from_millis(15));
        let t1 = std::time::Instant::now();
        plan.on_flush();
        assert!(t1.elapsed() < Duration::from_millis(15), "one-shot stall");
        assert_eq!(plan.stalls_fired(), 1);
    }

    #[test]
    fn queue_full_storm_and_reset() {
        let plan = FaultPlan::default();
        plan.inject_queue_full(3);
        assert!(plan.on_submit());
        plan.reset();
        assert!(!plan.on_submit(), "reset disarms the storm");
        assert_eq!(plan.fulls_fired(), 1);
    }
}
