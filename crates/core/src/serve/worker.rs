//! Worker threads: pull requests off the shared bounded queue into
//! per-`(key, op)` shards, flush each shard on **fill-or-deadline**
//! through [`Session::run_batch`], and isolate every failure to the
//! shard that caused it.
//!
//! ## Panic isolation, two layers
//!
//! 1. **Per-flush** — the batch computation runs inside
//!    `catch_unwind`: a panicking engine poisons nothing (every lock
//!    in the serving stack recovers via
//!    [`lock_unpoisoned`](crate::pool::lock_unpoisoned)), the
//!    shard's requests are answered with
//!    [`MmmError::WorkerPanicked`], and the worker keeps serving.
//! 2. **Whole-worker** — [`run`] wraps the serve loop itself in
//!    `catch_unwind` and restarts it on any escape (including
//!    injected panics from [`super::faults`], which deliberately fire
//!    outside the per-flush net). Requests in flight at that moment
//!    are still answered: their [`Responder`]s resolve the tickets
//!    from `Drop` as the unwind tears the batch down.
//!
//! ## Deadline scheduling
//!
//! Workers park on the queue with a timeout equal to the earliest
//! pending shard deadline, capped at [`MAX_PARK`] — the cap covers
//! the race where a worker computed "nothing pending" and parked just
//! before a peer accepted the first request of a new shard. Any
//! worker that wakes flushes *all* due shards (the take-under-lock
//! makes concurrent flushers safe), so a singleton request is
//! answered at most `flush_deadline + MAX_PARK` after submission even
//! if its accepting worker then stalls.
//!
//! The deadline is anchored at **accept** time — the instant a worker
//! files the first request of an empty shard — not at admission. A
//! request that sat in a backed-up queue therefore still waits up to
//! one deadline for shard peers once it is accepted; anchoring at
//! admission would make every request behind a backlog already "due"
//! and collapse a saturated server into one-lane flushes.

use super::faults::FaultPlan;
use super::queue::{BoundedQueue, Pop};
use super::ticket::Responder;
use super::{ServeStats, Session};
use crate::pool::lock_unpoisoned;
use crate::{MmmError, Quarantine};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Upper bound on how long a worker parks without re-checking shard
/// deadlines (see the module docs).
const MAX_PARK: Duration = Duration::from_millis(25);

/// One accepted request traveling through the queue.
#[derive(Debug)]
pub(crate) struct Request<S: Session> {
    pub(crate) key: usize,
    pub(crate) op: S::Op,
    pub(crate) value: S::Request,
    pub(crate) responder: Responder<S::Response>,
}

/// The requests of one flush and the responders that answer them.
type Batch<S> = (
    Vec<<S as Session>::Request>,
    Vec<Responder<<S as Session>::Response>>,
);

/// Every open shard, keyed by `(key, op)`.
type Shards<S> = HashMap<(usize, <S as Session>::Op), PendingShard<S>>;

/// Requests aggregated toward one flush of one `(key, op)` shard.
#[derive(Debug)]
struct PendingShard<S: Session> {
    values: Vec<S::Request>,
    responders: Vec<Responder<S::Response>>,
    /// Accept instant of the oldest queued request — the anchor of
    /// the fill-or-deadline policy (see the module docs).
    oldest: Instant,
}

impl<S: Session> PendingShard<S> {
    fn take(&mut self) -> Batch<S> {
        (
            std::mem::take(&mut self.values),
            std::mem::take(&mut self.responders),
        )
    }
}

impl<S: Session> Default for PendingShard<S> {
    fn default() -> Self {
        PendingShard {
            values: Vec::new(),
            responders: Vec::new(),
            oldest: Instant::now(),
        }
    }
}

/// Diagnostic counters (relaxed atomics — monotone tallies, not a
/// synchronization mechanism).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) submitted: AtomicU64,
    pub(crate) overloaded: AtomicU64,
    pub(crate) submit_timeouts: AtomicU64,
    pub(crate) rejected_invalid: AtomicU64,
    pub(crate) completed_ok: AtomicU64,
    pub(crate) completed_err: AtomicU64,
    pub(crate) fill_flushes: AtomicU64,
    pub(crate) deadline_flushes: AtomicU64,
    pub(crate) drain_flushes: AtomicU64,
    pub(crate) flush_panics: AtomicU64,
    pub(crate) worker_restarts: AtomicU64,
}

impl Counters {
    pub(crate) fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// The single place counters are read for export: folds the serve
    /// tallies and the integrity ledger of `quarantine` into one
    /// [`ServeStats`] value (every load relaxed — these are monotone
    /// diagnostics, not synchronization).
    pub(crate) fn snapshot(&self, quarantine: &Quarantine) -> ServeStats {
        let q = quarantine.stats();
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            submit_timeouts: self.submit_timeouts.load(Ordering::Relaxed),
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            completed_ok: self.completed_ok.load(Ordering::Relaxed),
            completed_err: self.completed_err.load(Ordering::Relaxed),
            fill_flushes: self.fill_flushes.load(Ordering::Relaxed),
            deadline_flushes: self.deadline_flushes.load(Ordering::Relaxed),
            drain_flushes: self.drain_flushes.load(Ordering::Relaxed),
            flush_panics: self.flush_panics.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            integrity_violations: q.violations,
            integrity_corrected: q.corrected,
            backends_quarantined: q.quarantined_backends,
        }
    }
}

/// Everything the workers and the submit path share.
#[derive(Debug)]
pub(crate) struct Shared<S: Session> {
    pub(crate) queue: BoundedQueue<Request<S>>,
    pub(crate) sessions: Vec<S>,
    shards: Mutex<Shards<S>>,
    pub(crate) faults: FaultPlan,
    pub(crate) counters: Counters,
    /// The integrity ledger the sessions' configs dispatch through;
    /// [`Counters::snapshot`] folds its violation/correction/
    /// quarantine tallies into [`ServeStats`].
    pub(crate) quarantine: Arc<Quarantine>,
    pub(crate) shard_lanes: usize,
    pub(crate) flush_deadline: Duration,
}

impl<S: Session> Shared<S> {
    pub(crate) fn new(
        sessions: Vec<S>,
        queue_bound: usize,
        quarantine: Arc<Quarantine>,
        shard_lanes: usize,
        flush_deadline: Duration,
    ) -> Self {
        Shared {
            queue: BoundedQueue::new(queue_bound),
            sessions,
            shards: Mutex::new(HashMap::new()),
            faults: FaultPlan::default(),
            counters: Counters::default(),
            quarantine,
            shard_lanes,
            flush_deadline,
        }
    }

    /// The earliest instant at which some pending shard becomes due.
    fn next_flush_deadline(&self) -> Option<Instant> {
        let shards = lock_unpoisoned(&self.shards);
        shards
            .values()
            .filter(|s| !s.values.is_empty())
            .map(|s| s.oldest + self.flush_deadline)
            .min()
    }

    /// Requests currently aggregated but not yet flushed (diagnostic).
    pub(crate) fn pending_len(&self) -> usize {
        lock_unpoisoned(&self.shards)
            .values()
            .map(|s| s.values.len())
            .sum()
    }
}

/// The worker entry point: a supervisor loop that restarts the serve
/// loop whenever a panic escapes it, until clean shutdown.
pub(crate) fn run<S: Session>(shared: &Shared<S>) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| serve_until_closed(shared))) {
            Ok(()) => return,
            Err(_) => shared.counters.bump(&shared.counters.worker_restarts),
        }
    }
}

fn serve_until_closed<S: Session>(shared: &Shared<S>) {
    loop {
        let park_cap = Instant::now() + MAX_PARK;
        let until = match shared.next_flush_deadline() {
            Some(d) => d.min(park_cap),
            None => park_cap,
        };
        match shared.queue.pop_deadline(Some(until)) {
            Pop::Item(req) => accept(shared, req),
            Pop::TimedOut => {}
            Pop::Closed => break,
        }
        flush_due(shared, Instant::now());
    }
    // Drain-then-stop: the queue is closed and (as observed by this
    // worker) empty — `pop_deadline` delivers queued items before ever
    // reporting `Closed`, so everything admitted has been accepted
    // into shards. Answer whatever is still pending, deadline or not.
    flush_remaining(shared);
}

/// Files one request into its `(key, op)` shard and flushes the shard
/// if that filled it.
fn accept<S: Session>(shared: &Shared<S>, req: Request<S>) {
    let filled = {
        let mut shards = lock_unpoisoned(&shared.shards);
        let shard = shards.entry((req.key, req.op)).or_default();
        if shard.values.is_empty() {
            shard.oldest = Instant::now();
        }
        shard.values.push(req.value);
        shard.responders.push(req.responder);
        if shard.values.len() >= shared.shard_lanes {
            Some((req.key, req.op, shard.take()))
        } else {
            None
        }
    };
    if let Some((key, op, batch)) = filled {
        shared.counters.bump(&shared.counters.fill_flushes);
        flush_batch(shared, key, op, batch);
    }
}

/// Flushes every shard whose oldest request has waited past the
/// deadline. Batches are taken under the lock, flushed outside it.
fn flush_due<S: Session>(shared: &Shared<S>, now: Instant) {
    let due: Vec<_> = {
        let mut shards = lock_unpoisoned(&shared.shards);
        shards
            .iter_mut()
            .filter(|(_, s)| !s.values.is_empty() && now >= s.oldest + shared.flush_deadline)
            .map(|(&(key, op), s)| (key, op, s.take()))
            .collect()
    };
    for (key, op, batch) in due {
        shared.counters.bump(&shared.counters.deadline_flushes);
        flush_batch(shared, key, op, batch);
    }
}

/// Shutdown path: flushes everything still pending, regardless of
/// fill level or deadline. Safe to run from several workers at once —
/// the take-under-lock hands each batch to exactly one flusher.
fn flush_remaining<S: Session>(shared: &Shared<S>) {
    let remaining: Vec<_> = {
        let mut shards = lock_unpoisoned(&shared.shards);
        shards
            .iter_mut()
            .filter(|(_, s)| !s.values.is_empty())
            .map(|(&(key, op), s)| (key, op, s.take()))
            .collect()
    };
    for (key, op, batch) in remaining {
        shared.counters.bump(&shared.counters.drain_flushes);
        flush_batch(shared, key, op, batch);
    }
}

/// Runs one batch through its session's [`Session::run_batch`] and
/// resolves every ticket.
///
/// The fault hook fires *before* the per-flush `catch_unwind`: an
/// injected panic unwinds the whole worker, and the batch's
/// responders — torn down by the unwind — resolve their tickets from
/// `Drop`. A panic from the computation itself is caught here, turned
/// into per-request [`MmmError::WorkerPanicked`] responses, and the
/// worker carries on without restarting.
fn flush_batch<S: Session>(shared: &Shared<S>, key: usize, op: S::Op, batch: Batch<S>) {
    let (values, responders) = batch;
    shared.faults.on_flush();
    let session = &shared.sessions[key];
    let outcome = catch_unwind(AssertUnwindSafe(|| session.run_batch(op, values)));
    match outcome {
        Ok(Ok(outs)) => {
            // `run_batch` answers one response per request; if a
            // session breaks that contract, the zip under-iterates and
            // the leftover responders still answer via Drop.
            debug_assert_eq!(outs.len(), responders.len());
            for (responder, out) in responders.into_iter().zip(outs) {
                shared.counters.bump(&shared.counters.completed_ok);
                responder.fulfill(Ok(out));
            }
        }
        Ok(Err(e)) => {
            for responder in responders {
                shared.counters.bump(&shared.counters.completed_err);
                responder.fulfill(Err(e.clone()));
            }
        }
        Err(_) => {
            shared.counters.bump(&shared.counters.flush_panics);
            for responder in responders {
                shared.counters.bump(&shared.counters.completed_err);
                responder.fulfill(Err(MmmError::WorkerPanicked));
            }
        }
    }
}
