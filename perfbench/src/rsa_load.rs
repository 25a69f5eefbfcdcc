//! The two RSA serving workloads: seeded keys and ciphertexts behind one
//! `mmm_rsa::Server`, driven by a single generator thread in a closed
//! loop (a fixed number of requests in flight) and an open loop (a fixed
//! absolute arrival rate, latency timed from each request's due time).

use crate::util::{median, ms, process_cpu, us, window_percentiles};
use crate::{derive_rng, Tally};
use mmm_bigint::Ubig;
use mmm_core::batch::MAX_LANES;
use mmm_core::config::{DEFAULT_FLUSH_DEADLINE, DEFAULT_QUEUE_BOUND};
use mmm_core::pool::DEFAULT_MAX_KEYS;
use mmm_core::{EngineConfig, EngineKind, HardeningMode, MmmError, VerifyPolicy, WindowPolicy};
use mmm_rsa::{BatchOp, KeyId, RsaKeyPair, ServeStats, Server, Ticket};
use rand::Rng;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// RSA modulus size of every workload key.
pub const KEY_BITS: usize = 1024;
/// Miller–Rabin rounds for key generation.
const MR_ROUNDS: usize = 16;
/// Length of the seeded (key, message) draw sequence requests cycle
/// through.
const DRAWS: usize = 16384;
/// A request not answered this long after its due time (open loop) or
/// its submission (closed loop) counts as a timeout.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// One RSA serving workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Keys registered with the server; each request draws one uniformly.
    pub keys: usize,
    pub hardening: HardeningMode,
    /// Share of the run's seconds spent in the closed phase (0 = none).
    pub closed_share: f64,
    /// Closed-then-open rounds the measured run is cut into.
    pub cycles: usize,
    /// Requests kept in flight by the closed phase.
    pub inflight: usize,
    /// Fixed absolute arrival rate of the open phase, requests/s.
    pub rate: f64,
    /// Window length of the open phase; latency figures are per window.
    pub window_secs: f64,
    /// The percentile reported as `tail_ms`: the highest leaving at
    /// least 10 samples beyond it in every window.
    pub tail_pct: f64,
    /// Distinct seeded messages per key.
    pub msgs_per_key: usize,
    /// Requests per key answered during set-up to warm pool and engines.
    pub warm_per_key: usize,
}

/// One seeded RSA-1024 key, full or nearly full shards: the happy path.
pub const HOT_KEY: Spec = Spec {
    name: "rsa-hot-key",
    keys: 1,
    hardening: HardeningMode::Off,
    closed_share: 0.4,
    cycles: 7,
    inflight: 256,
    rate: 2000.0,
    window_secs: 1.0,
    tail_pct: 99.0,
    msgs_per_key: 1024,
    warm_per_key: 64,
};

/// 24 keys (72 moduli, more than the pool's 64 entries), hardened, at a
/// rate that keeps up: nearly every flush is a one-lane deadline flush.
pub const MULTITENANT: Spec = Spec {
    name: "rsa-multitenant-ct",
    keys: 24,
    hardening: HardeningMode::Hardened,
    closed_share: 0.0,
    cycles: 1,
    inflight: 0,
    rate: 40.0,
    window_secs: 5.0,
    tail_pct: 95.0,
    msgs_per_key: 32,
    warm_per_key: 1,
};

/// The serving configuration, every knob pinned to its documented
/// default except the workload's hardening mode and the sampled
/// verify-before-release policy. The worker count is left at its
/// default (the host's available parallelism).
pub fn config(hardening: HardeningMode) -> EngineConfig {
    EngineConfig::default()
        .with_backend(EngineKind::Cios)
        .with_window(WindowPolicy::Auto)
        .expect("auto window is valid")
        .with_pool_capacity(DEFAULT_MAX_KEYS)
        .expect("default pool capacity is valid")
        .with_shard_lanes(MAX_LANES)
        .expect("full shards are valid")
        .with_flush_deadline(DEFAULT_FLUSH_DEADLINE)
        .with_queue_bound(DEFAULT_QUEUE_BOUND)
        .expect("default queue bound is valid")
        .with_verify(VerifyPolicy::sampled())
        .with_hardening(hardening)
}

/// Seeded keys and messages: the generated inputs, independent of any
/// server.
#[derive(Debug, Clone)]
pub struct Traffic {
    pub keys: Vec<RsaKeyPair>,
    /// Per key: `(plaintext, ciphertext)` pairs, the ciphertext computed
    /// with plain `Ubig::modpow` so the oracle shares no code with the
    /// batch engines.
    pub msgs: Vec<Vec<(Ubig, Ubig)>>,
    /// The request sequence: `(key, message)` indices.
    pub draws: Vec<(usize, usize)>,
}

impl Traffic {
    pub fn generate(spec: &Spec, seed: u64) -> Traffic {
        let mut krng = derive_rng(seed, 1);
        let keys: Vec<RsaKeyPair> = (0..spec.keys)
            .map(|_| RsaKeyPair::generate(&mut krng, KEY_BITS, MR_ROUNDS))
            .collect();
        let mut mrng = derive_rng(seed, 2);
        let msgs = keys
            .iter()
            .map(|k| {
                (0..spec.msgs_per_key)
                    .map(|_| {
                        let m = Ubig::random_below(&mut mrng, &k.n);
                        let c = m.modpow(&k.e, &k.n);
                        (m, c)
                    })
                    .collect()
            })
            .collect();
        let mut drng = derive_rng(seed, 3);
        let draws = (0..DRAWS)
            .map(|_| {
                (
                    drng.gen_range(0, spec.keys as u64) as usize,
                    drng.gen_range(0, spec.msgs_per_key as u64) as usize,
                )
            })
            .collect();
        Traffic { keys, msgs, draws }
    }
}

/// A running server over generated traffic.
pub struct Fixture {
    pub spec: Spec,
    pub traffic: Traffic,
    pub server: Server,
    ids: Vec<KeyId>,
    /// Next position in the draw sequence.
    cursor: usize,
}

impl Fixture {
    /// The whole set-up: key generation, traffic generation, server
    /// build (one session per key) and a warm-up pass whose answers are
    /// checked like every other response.
    pub fn build(spec: Spec, seed: u64, tally: &mut Tally) -> Result<Fixture, MmmError> {
        let traffic = Traffic::generate(&spec, seed);
        let mut setup = Server::builder(config(spec.hardening));
        let ids = traffic
            .keys
            .iter()
            .map(|k| setup.add_key(k.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        let server = setup.build()?;
        let fx = Fixture {
            spec,
            traffic,
            server,
            ids,
            cursor: 0,
        };
        let mut warm = Vec::new();
        for k in 0..spec.keys {
            for j in 0..spec.warm_per_key.min(spec.msgs_per_key) {
                let c = fx.traffic.msgs[k][j].1.clone();
                warm.push((
                    (k, j),
                    fx.server.try_submit(fx.ids[k], BatchOp::DecryptCrt, c)?,
                ));
            }
        }
        for (d, t) in warm {
            fx.check(d, t.wait_timeout(TIMEOUT).ok(), tally, false);
        }
        Ok(fx)
    }

    pub fn key_id(&self, k: usize) -> KeyId {
        self.ids[k]
    }

    fn next_draw(&mut self) -> (usize, usize) {
        let d = self.traffic.draws[self.cursor % DRAWS];
        self.cursor += 1;
        d
    }

    fn submit(
        &self,
        (k, j): (usize, usize),
        probe: Option<&mut Probe>,
    ) -> Result<Ticket, MmmError> {
        let c = self.traffic.msgs[k][j].1.clone();
        match probe {
            None => self.server.try_submit(self.ids[k], BatchOp::DecryptCrt, c),
            Some(p) => {
                let t = Instant::now();
                let r = self.server.try_submit(self.ids[k], BatchOp::DecryptCrt, c);
                p.submit_us.push(us(t.elapsed()));
                p.depth
                    .push((self.server.queue_depth() + self.server.pending_depth()) as f64);
                r
            }
        }
    }

    /// Checks one response against its plaintext; returns whether it is
    /// a correct answer. A typed error is counted as failed; a wrong
    /// plaintext is recorded and fails the run.
    fn check(
        &self,
        (k, j): (usize, usize),
        res: Option<Result<Ubig, MmmError>>,
        tally: &mut Tally,
        counted: bool,
    ) -> bool {
        match res {
            Some(Ok(m)) if m == self.traffic.msgs[k][j].0 => {
                if counted {
                    tally.ok += 1;
                }
                true
            }
            Some(Ok(_)) => {
                tally.wrong(format!(
                    "{}: key {k} message {j}: wrong plaintext",
                    self.spec.name
                ));
                false
            }
            Some(Err(e)) => {
                if counted {
                    tally.error(&e);
                } else {
                    tally.wrong(format!("{}: set-up request failed: {e}", self.spec.name));
                }
                false
            }
            None => {
                if counted {
                    tally.timeout();
                } else {
                    tally.wrong(format!("{}: set-up request timed out", self.spec.name));
                }
                false
            }
        }
    }

    /// Closed loop: keeps `spec.inflight` requests outstanding for
    /// `secs`, submitting a new request as each one is answered. Returns
    /// the answers that landed inside the phase per second, timed to the
    /// last of them.
    pub fn closed(&mut self, secs: f64, mut probe: Option<&mut Probe>, tally: &mut Tally) -> f64 {
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        let mut inflight: VecDeque<((usize, usize), Ticket)> = VecDeque::new();
        let (mut done, mut last) = (0u64, start);
        let refill = |fx: &mut Fixture,
                      q: &mut VecDeque<_>,
                      probe: &mut Option<&mut Probe>,
                      tally: &mut Tally| {
            while q.len() < fx.spec.inflight && Instant::now() < end {
                let d = fx.next_draw();
                tally.attempted += 1;
                match fx.submit(d, probe.as_deref_mut()) {
                    Ok(t) => q.push_back((d, t)),
                    Err(e) => {
                        tally.error(&e);
                        break;
                    }
                }
            }
        };
        refill(self, &mut inflight, &mut probe, tally);
        while let Some((d, t)) = inflight.pop_front() {
            let res = t.wait_timeout(TIMEOUT).ok();
            let at = Instant::now();
            if self.check(d, res, tally, true) && at <= end {
                done += 1;
                last = at;
            }
            refill(self, &mut inflight, &mut probe, tally);
        }
        done as f64 / (last - start).as_secs_f64().max(1e-9)
    }

    /// Open loop: `rate × secs` requests on a fixed schedule from one
    /// thread; a late send goes out at once, and its latency still counts
    /// from its due time.
    pub fn open(
        &mut self,
        rate: f64,
        secs: f64,
        mut probe: Option<&mut Probe>,
        tally: &mut Tally,
    ) -> OpenResult {
        let n = (rate * secs).round().max(1.0) as usize;
        let start = Instant::now() + Duration::from_millis(5);
        let mut pending = VecDeque::new();
        let mut lag_ms = Vec::with_capacity(n);
        let mut answers = Answers::default();
        for i in 0..n {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let now = Instant::now();
            lag_ms.push(ms(now.saturating_duration_since(due)));
            let d = self.next_draw();
            tally.attempted += 1;
            match self.submit(d, probe.as_deref_mut()) {
                Ok(t) => pending.push_back((d, due, t)),
                Err(e) => tally.error(&e),
            }
            self.reap(&mut pending, &mut answers, tally, false);
        }
        self.reap(&mut pending, &mut answers, tally, true);
        let Answers { latency, done } = answers;
        let last = done.iter().max().copied().unwrap_or(start);
        let offsets: Vec<(f64, f64)> = latency
            .iter()
            .map(|&(due, l)| ((due - start).as_secs_f64(), l))
            .collect();
        let (window_p50_ms, window_tail_ms) =
            window_percentiles(&offsets, self.spec.window_secs, self.spec.tail_pct);
        OpenResult {
            window_p50_ms,
            window_tail_ms,
            achieved_ops_s: done.len() as f64
                / last
                    .saturating_duration_since(start)
                    .as_secs_f64()
                    .max(1e-9),
            latency_ms: latency.into_iter().map(|(_, l)| l).collect(),
            lag_ms,
        }
    }

    /// Collects answered requests from the front of the open loop's
    /// in-flight queue (answers land roughly in order), so the generator
    /// holds only what is in flight. With `drain`, waits for every
    /// request until it is answered or times out.
    fn reap(
        &self,
        pending: &mut VecDeque<((usize, usize), Instant, Ticket)>,
        answers: &mut Answers,
        tally: &mut Tally,
        drain: bool,
    ) {
        while let Some((_, due, t)) = pending.front() {
            if t.is_ready() {
                let (d, due, t) = pending.pop_front().expect("front exists");
                let (res, at) = t.wait_timed();
                if self.check(d, Some(res), tally, true) {
                    let latency = ms(at.saturating_duration_since(due));
                    answers.latency.push((due, latency));
                    answers.done.push(at);
                }
            } else if Instant::now() > *due + TIMEOUT {
                let (d, _, _) = pending.pop_front().expect("front exists");
                self.check(d, None, tally, true);
            } else if drain {
                std::thread::sleep(Duration::from_micros(200));
            } else {
                break;
            }
        }
    }

    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Latency (from the due time) and answer instants of the correctly
/// answered requests of an open phase.
#[derive(Debug, Default)]
struct Answers {
    latency: Vec<(Instant, f64)>,
    done: Vec<Instant>,
}

/// What one open phase measured.
#[derive(Debug, Default)]
pub struct OpenResult {
    /// Every request's latency from its due time.
    pub latency_ms: Vec<f64>,
    /// How late each send ran against its schedule.
    pub lag_ms: Vec<f64>,
    /// Answers per second from the phase start to the last answer.
    pub achieved_ops_s: f64,
    /// Median and tail latency of the requests due in each window.
    pub window_p50_ms: Vec<f64>,
    pub window_tail_ms: Vec<f64>,
}

/// Traced-run instrumentation of the serving front-end, recorded from
/// the generator around its calls into `Server`.
#[derive(Debug, Default)]
pub struct Probe {
    pub submit_us: Vec<f64>,
    /// `queue_depth() + pending_depth()` sampled at every submission.
    pub depth: Vec<f64>,
}

/// Serving-layer counters of one traced open phase.
#[derive(Debug)]
pub struct ServeTrace {
    pub probe: Probe,
    pub stats: ServeStats,
    pub open: OpenResult,
}

impl ServeTrace {
    /// Mean lanes per flush over the phase.
    pub fn lanes_per_flush(&self) -> f64 {
        let flushes =
            self.stats.fill_flushes + self.stats.deadline_flushes + self.stats.drain_flushes;
        (self.stats.completed_ok + self.stats.completed_err) as f64 / flushes.max(1) as f64
    }

    pub fn deadline_flush_frac(&self) -> f64 {
        let flushes =
            self.stats.fill_flushes + self.stats.deadline_flushes + self.stats.drain_flushes;
        self.stats.deadline_flushes as f64 / flushes.max(1) as f64
    }
}

/// Difference of two monotone counter snapshots.
pub fn stats_delta(a: &ServeStats, b: &ServeStats) -> ServeStats {
    ServeStats {
        submitted: b.submitted - a.submitted,
        overloaded: b.overloaded - a.overloaded,
        submit_timeouts: b.submit_timeouts - a.submit_timeouts,
        rejected_invalid: b.rejected_invalid - a.rejected_invalid,
        completed_ok: b.completed_ok - a.completed_ok,
        completed_err: b.completed_err - a.completed_err,
        fill_flushes: b.fill_flushes - a.fill_flushes,
        deadline_flushes: b.deadline_flushes - a.deadline_flushes,
        drain_flushes: b.drain_flushes - a.drain_flushes,
        flush_panics: b.flush_panics - a.flush_panics,
        worker_restarts: b.worker_restarts - a.worker_restarts,
        integrity_violations: b.integrity_violations - a.integrity_violations,
        integrity_corrected: b.integrity_corrected - a.integrity_corrected,
        backends_quarantined: b.backends_quarantined,
    }
}

/// One traced open phase on `fx`, with the serve counters it moved.
pub fn traced_open(fx: &mut Fixture, secs: f64, tally: &mut Tally) -> ServeTrace {
    let mut probe = Probe::default();
    let before = fx.server.stats();
    let open = fx.open(fx.spec.rate, secs, Some(&mut probe), tally);
    let stats = stats_delta(&before, &fx.server.stats());
    ServeTrace { probe, stats, open }
}

/// The untraced measurement of one RSA workload: `spec.cycles` rounds
/// of the closed phase (if the workload has one) followed by the open
/// phase, so each phase is spread over the whole run. Throughput and
/// CPU are totals over the phases; latency figures are medians over
/// the open phase's windows.
pub struct Measured {
    pub ops_s: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub cpu_ms_per_op: f64,
    pub latency_samples: usize,
}

pub fn measure(fx: &mut Fixture, seconds: f64, tally: &mut Tally) -> Measured {
    let cycles = fx.spec.cycles as f64;
    let closed_secs = seconds * fx.spec.closed_share / cycles;
    let open_secs = seconds * (1.0 - fx.spec.closed_share) / cycles;
    let (mut closed_rate, mut achieved) = (Vec::new(), Vec::new());
    let (mut p50, mut tail) = (Vec::new(), Vec::new());
    let mut samples = 0;
    let (cpu0, ok0) = (process_cpu(), tally.ok);
    for _ in 0..fx.spec.cycles {
        if closed_secs > 0.0 {
            closed_rate.push(fx.closed(closed_secs, None, tally));
        }
        let o = fx.open(fx.spec.rate, open_secs, None, tally);
        samples += o.latency_ms.len();
        achieved.push(o.achieved_ops_s);
        p50.extend(o.window_p50_ms);
        tail.extend(o.window_tail_ms);
    }
    let cpu_ms_per_op = ms(process_cpu() - cpu0) / (tally.ok - ok0).max(1) as f64;
    let rates = if closed_rate.is_empty() {
        achieved
    } else {
        closed_rate
    };
    Measured {
        ops_s: rates.iter().sum::<f64>() / rates.len() as f64,
        p50_ms: median(&p50),
        tail_ms: median(&tail),
        cpu_ms_per_op,
        latency_samples: samples,
    }
}
