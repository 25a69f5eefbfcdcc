//! The fault-tolerant multi-worker serving plane, shared by every
//! workload: one bounded queue, one ticket/responder pair and one
//! worker loop, generic over the [`Session`] trait.
//!
//! Modeled on the Quad-Core RSA Processor's shape — several cores fed
//! from one shared request queue — a [`Server`] owns `N` worker
//! threads ([`EngineConfig::workers`], default = available
//! parallelism) pulling from a **bounded** MPMC queue into per-
//! `(key, op)` shards, flushing each shard on **fill-or-deadline**:
//! a shard goes to [`Session::run_batch`] the moment it fills its
//! [`EngineConfig::shard_lanes`] lanes *or* once its oldest request
//! has waited [`EngineConfig::flush_deadline`] — so a singleton
//! request is never parked indefinitely waiting for 63 peers that may
//! not exist. `mmm-rsa`'s `KeyedSession` (sign, decrypt, CRT decrypt)
//! and `mmm-ecc`'s `CurveSession` (ECDSA verify, ECDH) are the two
//! sessions served this way; each server runs one session type.
//!
//! The point of this module, though, is what happens when things go
//! wrong. A front-end for "millions of users" meets every one of
//! these failure modes; each has a designed answer here, and each is
//! exercised by the fault-injection harness in [`faults`]:
//!
//! | failure | behavior |
//! |---|---|
//! | overload | bounded queue; [`Server::try_submit`] returns [`MmmError::Overloaded`], blocking [`Server::submit`] waits at most the caller's timeout then returns [`MmmError::DeadlineExceeded`] — the process never OOMs on a backlog |
//! | stalled batch | deadline-driven flushing; any free worker flushes any due shard, so one slow flush delays only its own shard |
//! | worker death | panics are caught per-flush (shard answered with [`MmmError::WorkerPanicked`], worker keeps serving); panics escaping the serve loop restart the worker, and the in-flight shard's tickets are still resolved by [`Responder` drops](Ticket) |
//! | poisoned global state | every lock in the stack — including the process-wide engine pool — recovers via [`lock_unpoisoned`] instead of cascading the panic |
//! | shutdown | [`Server::shutdown`] (and `Drop`) closes the queue, drains everything already admitted, answers it, then joins the workers — in-flight requests are never dropped |
//!
//! The end-to-end guarantee, asserted for every RSA and ECC op kind
//! across every [`EngineKind`](crate::EngineKind) backend by
//! `tests/serve_faults.rs` and `tests/serve_stress.rs`: **every
//! admitted request receives exactly one response** — a bit-exact
//! result or a typed [`MmmError`] — under injected panics, stalls,
//! and queue-full storms; never a wrong answer, a deadlock, or a
//! lost response.
//!
//! ```
//! use mmm_core::serve::{Server, Session};
//! use mmm_core::{EngineConfig, MmmError, OperandBound};
//! use std::time::Duration;
//!
//! /// Squares residues modulo a small `n` — a stand-in workload.
//! #[derive(Debug)]
//! struct Squarer(u64);
//!
//! impl Session for Squarer {
//!     type Op = ();
//!     type Request = u64;
//!     type Response = u64;
//!     fn admit(&self, _: (), x: &u64) -> Result<(), MmmError> {
//!         if *x < self.0 {
//!             Ok(())
//!         } else {
//!             Err(MmmError::OperandOutOfRange { lane: 0, bound: OperandBound::N })
//!         }
//!     }
//!     fn run_batch(&self, _: (), xs: Vec<u64>) -> Result<Vec<u64>, MmmError> {
//!         Ok(xs.into_iter().map(|x| x * x % self.0).collect())
//!     }
//! }
//!
//! # fn main() -> Result<(), MmmError> {
//! let config = EngineConfig::default()
//!     .with_workers(2)?
//!     .with_flush_deadline(Duration::from_millis(1));
//! let mut builder = Server::builder(config);
//! let id = builder.add_session(Squarer(97));
//! let server = builder.build()?;
//!
//! // Independent clients submit singletons and block on tickets.
//! let ticket = server.try_submit(id, (), 10)?;
//! assert_eq!(ticket.wait()?, 3);
//!
//! // Bad input bounces at admission; the server keeps serving.
//! let err = server.try_submit(id, (), 97).unwrap_err();
//! assert!(matches!(err, MmmError::OperandOutOfRange { .. }));
//! server.shutdown();
//! # Ok(()) }
//! ```

pub mod faults;
mod queue;
mod ticket;
mod worker;

pub use faults::FaultPlan;
pub use ticket::Ticket;

use crate::pool::lock_unpoisoned;
use crate::{EngineConfig, MmmError};
use queue::PushError;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use worker::{Request, Shared};

/// A workload the serving plane can run: the per-key (or per-curve)
/// state one [`Server`] registration holds. Four parts — an op, a
/// request and a response type, an admission check, and a fallible
/// batch run; the plane supplies everything else (queue, shards,
/// deadlines, backpressure, panic isolation, stats).
pub trait Session: Debug + Send + Sync + 'static {
    /// The operation a request asks for. Requests aggregate into one
    /// shard per `(KeyId, Op)`, so every flush runs a single op.
    type Op: Copy + Eq + Hash + Debug + Send + 'static;
    /// One client request.
    type Request: Debug + Send + 'static;
    /// One answer, delivered on the request's [`Ticket`].
    type Response: Debug + Send + 'static;

    /// Admission check, run on the submitting thread before the
    /// request is queued. An `Err` bounces just this request (counted
    /// in [`ServeStats::rejected_invalid`]) so a malformed request can
    /// never fail a shard of well-formed peers.
    fn admit(&self, op: Self::Op, request: &Self::Request) -> Result<(), MmmError>;

    /// Runs one shard of admitted requests: one response per request,
    /// in order. An `Err` answers every request of the shard with that
    /// error; a panic is caught and answered with
    /// [`MmmError::WorkerPanicked`].
    fn run_batch(
        &self,
        op: Self::Op,
        requests: Vec<Self::Request>,
    ) -> Result<Vec<Self::Response>, MmmError>;
}

/// Handle to a session registered with a [`Server`] (returned by
/// [`ServerBuilder::add_session`] / [`ServerBuilder::add_key`]); names
/// the session on every submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyId(usize);

/// Diagnostic counters of a running [`Server`] (a relaxed snapshot —
/// counters from in-flight operations may lag by a few units).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Submissions refused with [`MmmError::Overloaded`].
    pub overloaded: u64,
    /// Blocking submissions that gave up with
    /// [`MmmError::DeadlineExceeded`].
    pub submit_timeouts: u64,
    /// Submissions bounced at validation (e.g. operand `≥ N`).
    pub rejected_invalid: u64,
    /// Requests answered with a result.
    pub completed_ok: u64,
    /// Requests answered with a typed error by an explicit fulfill
    /// (responses delivered by `Drop` during a worker restart are
    /// *not* counted here — see `worker_restarts`).
    pub completed_err: u64,
    /// Flushes triggered by a full shard.
    pub fill_flushes: u64,
    /// Flushes triggered by the deadline.
    pub deadline_flushes: u64,
    /// Flushes performed by the shutdown drain.
    pub drain_flushes: u64,
    /// Flush panics caught by the per-flush isolation net.
    pub flush_panics: u64,
    /// Worker serve-loops restarted after an escaped panic.
    pub worker_restarts: u64,
    /// Lanes on which the arithmetic integrity layer detected a
    /// corrupted result before release (see
    /// [`crate::verify`]).
    pub integrity_violations: u64,
    /// Detected-then-corrected lanes: answered with a verified retry
    /// instead of an error.
    pub integrity_corrected: u64,
    /// Backends currently benched by the quarantine ledger this
    /// server dispatches through.
    pub backends_quarantined: u64,
}

/// Builds a [`Server`]: register sessions, then spawn the workers.
#[derive(Debug)]
pub struct ServerBuilder<S: Session> {
    config: EngineConfig,
    sessions: Vec<S>,
}

impl<S: Session> ServerBuilder<S> {
    /// An empty builder over `config` (which supplies the shard width,
    /// flush deadline, queue bound, worker count and the quarantine
    /// ledger folded into [`ServeStats`]).
    pub fn new(config: EngineConfig) -> Self {
        ServerBuilder {
            config,
            sessions: Vec::new(),
        }
    }

    /// Registers a key: builds its session under the builder's config
    /// (an RSA key pair becomes a `KeyedSession`, a curve spec a
    /// `CurveSession`). The returned [`KeyId`] names it on every
    /// submission.
    pub fn add_key<K>(&mut self, key: K) -> Result<KeyId, MmmError>
    where
        S: TryFrom<(K, EngineConfig), Error = MmmError>,
    {
        let session = S::try_from((key, self.config.clone()))?;
        Ok(self.add_session(session))
    }

    /// Registers a pre-built session (e.g. one configured differently
    /// from the server's own config).
    pub fn add_session(&mut self, session: S) -> KeyId {
        self.sessions.push(session);
        KeyId(self.sessions.len() - 1)
    }

    /// Spawns the worker threads and starts serving. Fails with
    /// [`MmmError::Config`] if no session was registered or a worker
    /// thread cannot be spawned.
    pub fn build(self) -> Result<Server<S>, MmmError> {
        if self.sessions.is_empty() {
            return Err(MmmError::Config(
                "server needs at least one registered key".to_string(),
            ));
        }
        let shared = Arc::new(Shared::new(
            self.sessions,
            self.config.queue_bound(),
            Arc::clone(self.config.quarantine()),
            self.config.shard_lanes(),
            self.config.flush_deadline(),
        ));
        let mut handles = Vec::with_capacity(self.config.workers());
        for i in 0..self.config.workers() {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("mmm-serve-{i}"))
                .spawn(move || worker::run(&shared))
                .map_err(|e| MmmError::Config(format!("failed to spawn serving worker: {e}")))?;
            handles.push(handle);
        }
        Ok(Server {
            shared,
            workers: Mutex::new(handles),
        })
    }
}

/// The multi-worker serving front-end. See the module docs for the
/// dispatch shape and the failure-mode table; construct via
/// [`Server::builder`].
#[derive(Debug)]
pub struct Server<S: Session> {
    shared: Arc<Shared<S>>,
    /// Worker handles, taken (and joined) exactly once at shutdown.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<S: Session> Server<S> {
    /// A fresh [`ServerBuilder`] over `config`.
    pub fn builder(config: EngineConfig) -> ServerBuilder<S> {
        ServerBuilder::new(config)
    }

    /// Non-blocking submission: runs the session's admission check,
    /// then either admits the request (returning the [`Ticket`] its
    /// response will arrive on) or refuses immediately —
    /// [`MmmError::Overloaded`] when the bounded queue is full (the
    /// backpressure signal), [`MmmError::Stopped`] after shutdown,
    /// the admission error (e.g. [`MmmError::OperandOutOfRange`]) for
    /// a malformed request, or [`MmmError::Config`] for an unknown
    /// [`KeyId`].
    pub fn try_submit(
        &self,
        key: KeyId,
        op: S::Op,
        value: S::Request,
    ) -> Result<Ticket<S::Response>, MmmError> {
        self.submit_inner(key, op, value, None)
    }

    /// Blocking submission with a caller budget: like
    /// [`Server::try_submit`] but waits up to `timeout` for a queue
    /// slot, then gives up with [`MmmError::DeadlineExceeded`].
    pub fn submit(
        &self,
        key: KeyId,
        op: S::Op,
        value: S::Request,
        timeout: Duration,
    ) -> Result<Ticket<S::Response>, MmmError> {
        self.submit_inner(key, op, value, Some(timeout))
    }

    fn submit_inner(
        &self,
        key: KeyId,
        op: S::Op,
        value: S::Request,
        timeout: Option<Duration>,
    ) -> Result<Ticket<S::Response>, MmmError> {
        let counters = &self.shared.counters;
        let session =
            self.shared.sessions.get(key.0).ok_or_else(|| {
                MmmError::Config(format!("unknown key id {} on this server", key.0))
            })?;
        // Validate at admission: a bad request bounces without ever
        // entering a shard.
        if let Err(e) = session.admit(op, &value) {
            counters.bump(&counters.rejected_invalid);
            return Err(e);
        }
        if self.shared.faults.on_submit() {
            counters.bump(&counters.overloaded);
            return Err(MmmError::Overloaded {
                capacity: self.shared.queue.capacity(),
            });
        }
        let (ticket, responder) = ticket::channel();
        let request = Request {
            key: key.0,
            op,
            value,
            responder,
        };
        let pushed = match timeout {
            None => self.shared.queue.try_push(request),
            Some(t) => self.shared.queue.push_timeout(request, t),
        };
        match pushed {
            Ok(()) => {
                counters.bump(&counters.submitted);
                Ok(ticket)
            }
            Err(PushError::Full(_)) => {
                counters.bump(&counters.overloaded);
                Err(MmmError::Overloaded {
                    capacity: self.shared.queue.capacity(),
                })
            }
            Err(PushError::TimedOut(_)) => {
                counters.bump(&counters.submit_timeouts);
                Err(MmmError::DeadlineExceeded)
            }
            Err(PushError::Closed(_)) => Err(MmmError::Stopped),
        }
    }

    /// The session serving `key`, if registered.
    pub fn session(&self, key: KeyId) -> Option<&S> {
        self.shared.sessions.get(key.0)
    }

    /// Requests sitting in the admission queue right now (excludes
    /// requests already aggregated into shards; see
    /// [`Server::pending_depth`]).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Requests accepted into shards but not yet flushed.
    pub fn pending_depth(&self) -> usize {
        self.shared.pending_len()
    }

    /// This server's fault-injection switches (inert unless armed).
    pub fn faults(&self) -> &FaultPlan {
        &self.shared.faults
    }

    /// A snapshot of the diagnostic counters — serve tallies plus the
    /// integrity ledger — read in one place rather than ad-hoc loads.
    pub fn stats(&self) -> ServeStats {
        self.shared.counters.snapshot(&self.shared.quarantine)
    }

    /// Graceful drain-then-stop: refuses new submissions, lets the
    /// workers drain and answer everything already admitted, then
    /// joins them. Dropping the server does the same; the explicit
    /// method exists so callers can sequence "no more traffic" before
    /// inspecting final [`Server::stats`]... which remain readable
    /// through the binding only until the server is consumed, hence
    /// the `self` receiver mirrors the one-way nature of shutdown.
    pub fn shutdown(self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&self) {
        self.shared.queue.close();
        let handles = std::mem::take(&mut *lock_unpoisoned(&self.workers));
        for handle in handles {
            // A worker that somehow died with an unjoinable panic has
            // already answered its tickets via responder drops; there
            // is nothing useful to do with the join error.
            let _ = handle.join();
        }
    }
}

impl<S: Session> Drop for Server<S> {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OperandBound;

    /// A stand-in workload: squares residues modulo `n`. The request
    /// [`POISON`] panics inside the batch run.
    #[derive(Debug)]
    struct Squarer(u64);

    const POISON: u64 = 13;

    impl Session for Squarer {
        type Op = ();
        type Request = u64;
        type Response = u64;

        fn admit(&self, _: (), x: &u64) -> Result<(), MmmError> {
            if *x < self.0 {
                Ok(())
            } else {
                Err(MmmError::OperandOutOfRange {
                    lane: 0,
                    bound: OperandBound::N,
                })
            }
        }

        fn run_batch(&self, _: (), xs: Vec<u64>) -> Result<Vec<u64>, MmmError> {
            assert!(!xs.contains(&POISON), "poisoned batch");
            Ok(xs.into_iter().map(|x| x * x % self.0).collect())
        }
    }

    impl TryFrom<(u64, EngineConfig)> for Squarer {
        type Error = MmmError;

        fn try_from((n, _): (u64, EngineConfig)) -> Result<Self, MmmError> {
            Ok(Squarer(n))
        }
    }

    fn tiny_config() -> EngineConfig {
        EngineConfig::default()
            .with_workers(2)
            .unwrap()
            .with_flush_deadline(Duration::from_millis(1))
    }

    fn server(n: u64) -> (Server<Squarer>, KeyId) {
        let mut builder = Server::builder(tiny_config());
        let id = builder.add_key(n).unwrap();
        (builder.build().unwrap(), id)
    }

    #[test]
    fn builder_rejects_empty_and_unknown_keys() {
        assert!(matches!(
            Server::<Squarer>::builder(tiny_config()).build(),
            Err(MmmError::Config(_))
        ));
        let (server, id) = server(97);
        assert_eq!(id, KeyId(0));
        let bogus = KeyId(7);
        assert!(matches!(
            server.try_submit(bogus, (), 1),
            Err(MmmError::Config(_))
        ));
        server.shutdown();
    }

    #[test]
    fn roundtrip_and_validation() {
        let (server, id) = server(97);
        let t = server.try_submit(id, (), 10).unwrap();
        assert_eq!(t.wait().unwrap(), 3);
        assert_eq!(
            server.try_submit(id, (), 97).unwrap_err(),
            MmmError::OperandOutOfRange {
                lane: 0,
                bound: OperandBound::N
            }
        );
        let stats = server.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.rejected_invalid, 1);
        assert_eq!(stats.completed_ok, 1);
        server.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_stopped() {
        let (server, id) = server(97);
        server.shared.queue.close();
        assert_eq!(server.try_submit(id, (), 1).unwrap_err(), MmmError::Stopped);
        server.shutdown();
    }

    #[test]
    fn batch_panic_is_caught_per_flush() {
        let (server, id) = server(97);
        let t = server.try_submit(id, (), POISON).unwrap();
        assert_eq!(t.wait(), Err(MmmError::WorkerPanicked));
        // The worker was not restarted: the per-flush net caught it,
        // and the next request is served normally.
        let t = server.try_submit(id, (), 5).unwrap();
        assert_eq!(t.wait(), Ok(25));
        let stats = server.stats();
        assert_eq!(stats.flush_panics, 1);
        assert_eq!(stats.worker_restarts, 0);
        assert_eq!(stats.completed_err, 1);
        server.shutdown();
    }
}
