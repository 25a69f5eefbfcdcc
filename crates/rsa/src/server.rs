//! The typed RSA serving API: a per-key session handle, and its
//! registration with the shared serving plane
//! ([`mmm_core::serve`]).
//!
//! Real traffic is *millions of independent clients* each submitting
//! one request against a long-lived key:
//!
//! * [`KeyedSession`] — one handle owning the key **and** its pooled
//!   Montgomery parameters (`N`, and the CRT primes `p`/`q`) plus the
//!   engine configuration, built once and reused for every request.
//!   Every method takes a slice of requests and returns
//!   `Result<_, MmmError>`, so one client's unreduced message bounces
//!   that call instead of aborting the process.
//! * [`Server`] — the multi-worker front-end that aggregates
//!   **individually submitted** requests into full shards per
//!   `(key, op)` and answers each on its own [`Ticket`].
//!   `KeyedSession` implements [`Session`] for [`BatchOp`]'s three
//!   single-input operations, so the plane's queue, deadlines,
//!   backpressure and panic isolation serve RSA unchanged.
//!
//! Backend, window policy, pool capacity, shard width and the serving
//! knobs all come from one validated [`EngineConfig`] value; use
//! [`EngineConfig::from_env`] to honor the `MMM_*` environment
//! overrides.

use crate::batch::decrypt_crt_core;
use crate::blinding::BlindingState;
use crate::keys::RsaKeyPair;
use mmm_bigint::Ubig;
use mmm_core::error::OperandBound;
use mmm_core::expo_batch::try_modexp_many_shared;
use mmm_core::montgomery::MontgomeryParams;
use mmm_core::pool;
use mmm_core::serve::{self, Session};
use mmm_core::{EngineConfig, EngineKind, MmmError};
use std::sync::Arc;

/// The RSA serving front-end: [`mmm_core::serve::Server`] over
/// [`KeyedSession`]s. Register keys with [`ServerBuilder::add_key`],
/// then submit singletons by [`KeyId`](mmm_core::serve::KeyId) and
/// [`BatchOp`].
///
/// ```
/// use mmm_bigint::Ubig;
/// use mmm_core::{EngineConfig, MmmError};
/// use mmm_rsa::{BatchOp, RsaKeyPair, Server};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use std::time::Duration;
///
/// # fn main() -> Result<(), MmmError> {
/// let mut rng = StdRng::seed_from_u64(5);
/// let key = RsaKeyPair::generate(&mut rng, 32, 8);
/// let config = EngineConfig::default()
///     .with_workers(2)?
///     .with_flush_deadline(Duration::from_millis(1));
/// let mut builder = Server::builder(config);
/// let key_id = builder.add_key(key.clone())?;
/// let server = builder.build()?;
///
/// // Independent clients submit singletons and block on tickets.
/// let m = Ubig::from(42u64);
/// let c = m.modpow(&key.e, &key.n);
/// let ticket = server.try_submit(key_id, BatchOp::DecryptCrt, c)?;
/// assert_eq!(ticket.wait()?, m);
///
/// // Bad input bounces at admission; the server keeps serving.
/// let err = server
///     .try_submit(key_id, BatchOp::DecryptCrt, key.n.clone())
///     .unwrap_err();
/// assert!(matches!(err, MmmError::OperandOutOfRange { .. }));
/// server.shutdown();
/// # Ok(()) }
/// ```
pub type Server = serve::Server<KeyedSession>;

/// Builds a [`Server`]: `add_key` per RSA key, then `build`.
pub type ServerBuilder = serve::ServerBuilder<KeyedSession>;

/// The caller's half of an RSA request submitted to a [`Server`].
pub type Ticket = serve::Ticket<Ubig>;

/// A serving session bound to one RSA key: owns the key, its pooled
/// Montgomery parameters for `N` and both CRT primes, and the engine
/// configuration. Construction pre-warms one engine per modulus in
/// the process-wide pool, so the first request pays no setup.
///
/// ```
/// use mmm_bigint::Ubig;
/// use mmm_core::{EngineConfig, MmmError};
/// use mmm_rsa::{KeyedSession, RsaKeyPair};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), MmmError> {
/// let mut rng = StdRng::seed_from_u64(7);
/// let key = RsaKeyPair::generate(&mut rng, 32, 8);
/// let session = KeyedSession::new(key, EngineConfig::default())?;
///
/// let ms = vec![Ubig::from(42u64), Ubig::from(7u64)];
/// let sigs = session.sign(&ms)?;
/// assert!(session.verify(&ms, &sigs)?.into_iter().all(|ok| ok));
///
/// // Bad input is a value, not a crash — and it names the lane.
/// let huge = session.key().n.clone();
/// let err = session.sign(&[Ubig::from(1u64), huge]).unwrap_err();
/// assert!(matches!(err, MmmError::OperandOutOfRange { lane: 1, .. }));
/// # Ok(()) }
/// ```
#[derive(Debug, Clone)]
pub struct KeyedSession {
    key: RsaKeyPair,
    config: EngineConfig,
    /// Pooled hardware-safe parameters for the public modulus `N`.
    params: MontgomeryParams,
    /// Pooled parameters for the CRT primes.
    pparams: MontgomeryParams,
    qparams: MontgomeryParams,
    /// Message/exponent blinding for CRT decryption — `Some` exactly
    /// when the config runs [`mmm_core::HardeningMode::Hardened`].
    /// Shared across clones so the square-and-refresh schedule
    /// advances globally per session, not per handle.
    blinding: Option<Arc<BlindingState>>,
}

impl KeyedSession {
    /// Builds a session for `key` under `config`: resolves the pooled
    /// parameters for `N`, `p` and `q` (the wide constant divisions
    /// run at most once per key process-wide) and pre-warms one
    /// engine per modulus ([`pool::prewarm`]).
    ///
    /// Fails with [`MmmError::Config`] if the process-wide pool
    /// cannot initialize (a broken `MMM_*` environment), or with
    /// [`MmmError::HardwareUnsafeWidth`] if the configured backend
    /// cannot run this key's parameters — which the pooled
    /// (hardware-safe) widths never trigger, but the check is kept so
    /// a future parameter source cannot turn a misconfiguration into
    /// a first-request crash.
    pub fn new(key: RsaKeyPair, config: EngineConfig) -> Result<Self, MmmError> {
        // A broken MMM_* environment surfaces here as a value — this
        // constructor must not inherit global()'s first-use panic.
        let pool = pool::try_global()?;
        let params = pool.params_for(&key.n);
        let pparams = pool.params_for(&key.p);
        let qparams = pool.params_for(&key.q);
        pool::prewarm(&config, &[&params, &pparams, &qparams])?;
        let blinding = config
            .hardening()
            .is_hardened()
            .then(|| Arc::new(BlindingState::new(key.n.clone(), key.e.clone())));
        Ok(KeyedSession {
            key,
            config,
            params,
            pparams,
            qparams,
            blinding,
        })
    }

    /// The session's key pair.
    pub fn key(&self) -> &RsaKeyPair {
        &self.key
    }

    /// The session's engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The multiplier backend this session runs on.
    pub fn backend(&self) -> EngineKind {
        self.config.backend()
    }

    /// Signs every message: `s_k = m_k ^ D mod N`. Lanes beyond the
    /// configured shard width fan out across cores on warm pooled
    /// engines. Rejects any message `≥ N` with
    /// [`MmmError::OperandOutOfRange`] naming the lane; empty input
    /// is `Ok(vec![])`.
    pub fn sign(&self, ms: &[Ubig]) -> Result<Vec<Ubig>, MmmError> {
        try_modexp_many_shared(&self.params, ms, &self.key.d, &self.config)
    }

    /// Verifies every signature: `s_k ^ E mod N == m_k`. Rejects
    /// mismatched slice lengths with [`MmmError::LengthMismatch`] and
    /// any signature `≥ N` with [`MmmError::OperandOutOfRange`].
    pub fn verify(&self, ms: &[Ubig], sigs: &[Ubig]) -> Result<Vec<bool>, MmmError> {
        if ms.len() != sigs.len() {
            return Err(MmmError::LengthMismatch {
                left: ms.len(),
                right: sigs.len(),
            });
        }
        let recovered = try_modexp_many_shared(&self.params, sigs, &self.key.e, &self.config)?;
        Ok(recovered.iter().zip(ms).map(|(r, m)| r == m).collect())
    }

    /// Decrypts every ciphertext with the full-width scan:
    /// `m_k = c_k ^ D mod N`. Prefer [`KeyedSession::decrypt_crt`] —
    /// it is ~4× cheaper; this entry point exists for keys whose CRT
    /// components are unavailable.
    pub fn decrypt(&self, cs: &[Ubig]) -> Result<Vec<Ubig>, MmmError> {
        try_modexp_many_shared(&self.params, cs, &self.key.d, &self.config)
    }

    /// CRT-decrypts every ciphertext: per shard, two half-width
    /// shared-exponent windowed batch runs (mod `p`, mod `q`) and a
    /// per-lane Garner recombination — bit-identical to scalar
    /// [`crate::cipher::decrypt_crt`] lane for lane.
    /// Rejects any ciphertext `≥ N` with
    /// [`MmmError::OperandOutOfRange`] naming the lane.
    ///
    /// Under a non-`Off` [`mmm_core::VerifyPolicy`] in this session's
    /// config (builder or `MMM_VERIFY`), the run is
    /// **verify-before-release**: every plaintext is re-encrypted and
    /// checked against its ciphertext before it is returned, a bad
    /// lane is retried once on a weaker backend, and an uncorrectable
    /// lane surfaces as [`MmmError::IntegrityViolation`] instead of a
    /// faulty (key-leaking) plaintext.
    ///
    /// Under [`mmm_core::HardeningMode::Hardened`] (builder or
    /// `MMM_HARDENED=1`) the batch additionally runs **blinded**: each
    /// ciphertext is masked as `c·r^E mod N` before the scans, the CRT
    /// exponents are randomized as `d_p + k_p(p−1)` / `d_q + k_q(q−1)`
    /// (same results, different digit sequences), and plaintexts are
    /// unmasked with `r⁻¹` before return — see [`crate::blinding`].
    /// Results remain bit-identical to the unblinded run.
    pub fn decrypt_crt(&self, cs: &[Ubig]) -> Result<Vec<Ubig>, MmmError> {
        let Some(state) = &self.blinding else {
            return decrypt_crt_core(&self.key, &self.pparams, &self.qparams, cs, &self.config);
        };
        // Validate *before* blinding so OperandOutOfRange still names
        // the offending lane by its original value (blinding would
        // wrap an out-of-range c into range and silently "accept" it).
        if let Some(lane) = cs.iter().position(|c| *c >= self.key.n) {
            return Err(MmmError::OperandOutOfRange {
                lane,
                bound: OperandBound::N,
            });
        }
        let ticket = state.ticket();
        let blinded = ticket.blind(cs, &self.key.n);
        // Exponent-blind a per-flush copy of the key: the masked
        // exponents land in the same residue class mod p−1 / q−1, so
        // Garner recombination and verify-before-release (which
        // re-encrypts with the unchanged public E against the blinded
        // ciphertexts: (m·r)^E = c·r^E = c′) are both untouched.
        let mut bkey = self.key.clone();
        let p1 = &self.key.p - &Ubig::one();
        let q1 = &self.key.q - &Ubig::one();
        bkey.dp = ticket.blinded_exponent(&self.key.dp, &p1, ticket.kp);
        bkey.dq = ticket.blinded_exponent(&self.key.dq, &q1, ticket.kq);
        let mut ms = decrypt_crt_core(&bkey, &self.pparams, &self.qparams, &blinded, &self.config)?;
        ticket.unblind(&mut ms, &self.key.n);
        Ok(ms)
    }
}

/// Which single-input operation a [`Server`] request asks for.
/// (Verification takes message *and* signature per request, so it
/// stays on [`KeyedSession::verify`].) The serving plane shards
/// pending requests by `(key, op)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchOp {
    /// `m ^ D mod N` per request ([`KeyedSession::sign`]).
    Sign,
    /// Full-width `c ^ D mod N` per request ([`KeyedSession::decrypt`]).
    Decrypt,
    /// CRT decryption per request ([`KeyedSession::decrypt_crt`]) —
    /// the serving flagship.
    DecryptCrt,
}

impl TryFrom<(RsaKeyPair, EngineConfig)> for KeyedSession {
    type Error = MmmError;

    /// [`KeyedSession::new`] — what [`ServerBuilder::add_key`] calls.
    fn try_from((key, config): (RsaKeyPair, EngineConfig)) -> Result<Self, MmmError> {
        KeyedSession::new(key, config)
    }
}

impl Session for KeyedSession {
    type Op = BatchOp;
    type Request = Ubig;
    type Response = Ubig;

    /// Bounces a value `≥ N` with [`MmmError::OperandOutOfRange`]
    /// (`lane: 0` — the request is its own batch of one).
    fn admit(&self, _op: BatchOp, value: &Ubig) -> Result<(), MmmError> {
        if *value >= self.key.n {
            return Err(MmmError::OperandOutOfRange {
                lane: 0,
                bound: OperandBound::N,
            });
        }
        Ok(())
    }

    fn run_batch(&self, op: BatchOp, values: Vec<Ubig>) -> Result<Vec<Ubig>, MmmError> {
        match op {
            BatchOp::Sign => self.sign(&values),
            BatchOp::Decrypt => self.decrypt(&values),
            BatchOp::DecryptCrt => self.decrypt_crt(&values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cipher::decrypt_crt;
    use crate::signing::{sign, verify};
    use mmm_core::traits::SoftwareEngine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::{Duration, Instant};

    fn keypair(bits: usize, seed: u64) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(&mut rng, bits, 12)
    }

    fn session_for(kind: EngineKind, key: &RsaKeyPair) -> KeyedSession {
        KeyedSession::new(key.clone(), EngineConfig::default().with_backend(kind))
            .expect("pooled params are hardware-safe for every backend")
    }

    /// A one-worker server whose deadline never fires within a test:
    /// only a full shard or the shutdown drain can flush.
    fn fill_only_server(key: &RsaKeyPair, lanes: usize) -> (Server, mmm_core::serve::KeyId) {
        let config = EngineConfig::default()
            .with_workers(1)
            .unwrap()
            .with_shard_lanes(lanes)
            .unwrap()
            .with_flush_deadline(Duration::from_secs(600));
        let mut builder = Server::builder(config);
        let id = builder.add_key(key.clone()).unwrap();
        (builder.build().unwrap(), id)
    }

    /// Polls `done` for up to ten seconds.
    fn await_until(done: impl Fn() -> bool) {
        let t0 = Instant::now();
        while !done() {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "condition never held"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn session_matches_legacy_entry_points_on_both_backends() {
        let key = keypair(48, 90);
        let params = MontgomeryParams::hardware_safe(&key.n);
        let mut rng = StdRng::seed_from_u64(91);
        let ms: Vec<Ubig> = (0..9)
            .map(|_| Ubig::random_below(&mut rng, &key.n))
            .collect();
        let cs: Vec<Ubig> = ms.iter().map(|m| m.modpow(&key.e, &key.n)).collect();
        let engine = || SoftwareEngine::new(params.clone());
        for kind in EngineKind::ALL {
            let session = session_for(kind, &key);
            let sigs = session.sign(&ms).unwrap();
            for (k, (m, s)) in ms.iter().zip(&sigs).enumerate() {
                assert_eq!(*s, sign(engine(), &key, m), "{} lane {k}", kind.name());
                assert!(verify(engine(), &key, m, s), "{} lane {k}", kind.name());
            }
            assert!(session.verify(&ms, &sigs).unwrap().into_iter().all(|ok| ok));
            let want: Vec<Ubig> = cs.iter().map(|c| decrypt_crt(&key, c)).collect();
            assert_eq!(session.decrypt_crt(&cs).unwrap(), want, "{}", kind.name());
            assert_eq!(session.decrypt(&cs).unwrap(), ms, "{}", kind.name());
        }
    }

    #[test]
    fn session_rejects_bad_input_as_values() {
        let key = keypair(32, 92);
        let session = session_for(EngineKind::Cios, &key);
        let n = key.n.clone();
        // The lane index survives sharding: put the bad value last.
        let mut ms = vec![Ubig::from(1u64), Ubig::from(2u64)];
        ms.push(n.clone());
        assert_eq!(
            session.sign(&ms).unwrap_err(),
            MmmError::OperandOutOfRange {
                lane: 2,
                bound: OperandBound::N
            }
        );
        assert_eq!(
            session.verify(&ms[..2], &ms[..1]).unwrap_err(),
            MmmError::LengthMismatch { left: 2, right: 1 }
        );
        assert!(matches!(
            session.decrypt_crt(std::slice::from_ref(&n)).unwrap_err(),
            MmmError::OperandOutOfRange { lane: 0, .. }
        ));
        // Empty input on the slice API is a no-op, not an error.
        assert_eq!(session.sign(&[]).unwrap(), Vec::<Ubig>::new());
    }

    // The `collector_*` and drain tests pin the server's per-(key, op)
    // shard aggregation — the one request collector in the workspace.

    #[test]
    fn collector_orders_results_and_survives_rejections() {
        let key = keypair(32, 93);
        let mut rng = StdRng::seed_from_u64(94);
        let ms: Vec<Ubig> = (0..5)
            .map(|_| Ubig::random_below(&mut rng, &key.n))
            .collect();
        let (server, id) = fill_only_server(&key, ms.len());
        let mut tickets = Vec::new();
        for m in &ms {
            tickets.push(server.try_submit(id, BatchOp::Sign, m.clone()).unwrap());
            // A rejected request never disturbs the shard.
            assert_eq!(
                server
                    .try_submit(id, BatchOp::Sign, key.n.clone())
                    .unwrap_err(),
                MmmError::OperandOutOfRange {
                    lane: 0,
                    bound: OperandBound::N
                }
            );
        }
        // One ticket per request: each answers its own submission.
        let want = session_for(EngineKind::Cios, &key).sign(&ms).unwrap();
        let got: Vec<Ubig> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert_eq!(got, want);
        let stats = server.stats();
        assert_eq!(stats.rejected_invalid, ms.len() as u64);
        assert_eq!(stats.fill_flushes, 1, "five requests, one full shard");
        server.shutdown();
    }

    #[test]
    fn drain_returns_the_unflushed_tail_with_ids() {
        let key = keypair(32, 96);
        let (server, id) = fill_only_server(&key, 64);
        let ms = [Ubig::from(7u64), Ubig::from(11u64), Ubig::from(13u64)];
        let tickets: Vec<_> = ms
            .iter()
            .map(|m| server.try_submit(id, BatchOp::Sign, m.clone()).unwrap())
            .collect();
        await_until(|| server.pending_depth() == ms.len());
        assert!(tickets.iter().all(|t| !t.is_ready()), "nothing flushed yet");
        // Shutdown drains the unflushed shard and answers each ticket.
        server.shutdown();
        let want = session_for(EngineKind::Cios, &key).sign(&ms).unwrap();
        for (ticket, want) in tickets.into_iter().zip(want) {
            assert_eq!(ticket.wait(), Ok(want));
        }
    }

    #[test]
    fn collector_full_shards_tracks_configured_width() {
        let key = keypair(32, 95);
        let (server, id) = fill_only_server(&key, 2);
        let tickets: Vec<_> = (0..5u64)
            .map(|i| {
                server
                    .try_submit(id, BatchOp::Decrypt, Ubig::from(i))
                    .unwrap()
            })
            .collect();
        // Two full 2-lane shards flush on fill; the fifth request waits.
        await_until(|| tickets[..4].iter().all(|t| t.is_ready()) && server.pending_depth() == 1);
        assert_eq!(server.stats().fill_flushes, 2);
        assert!(!tickets[4].is_ready());
        server.shutdown();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let c = Ubig::from(i as u64);
            assert_eq!(ticket.wait(), Ok(c.modpow(&key.d, &key.n)));
        }
    }
}
