//! The serving layer end to end: `KeyedSession` behind the `Server`
//! front-end against the session's own slice API — each ticket must
//! carry exactly its request's bits on **every** backend, and the
//! aggregation bookkeeping (one ticket per request, shard fill, the
//! shutdown drain) must behave like a server can rely on.

mod common;

use common::await_until;
use montgomery_systolic::bigint::Ubig;
use montgomery_systolic::core::config::{EngineConfig, WindowPolicy};
use montgomery_systolic::core::EngineKind;
use montgomery_systolic::rsa::{BatchOp, KeyId, KeyedSession, RsaKeyPair, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn keypair(bits: usize, seed: u64) -> RsaKeyPair {
    let mut rng = StdRng::seed_from_u64(seed);
    RsaKeyPair::generate(&mut rng, bits, 12)
}

fn server_on(key: &RsaKeyPair, config: EngineConfig) -> (Server, KeyId) {
    let mut builder = Server::builder(config);
    let id = builder.add_key(key.clone()).unwrap();
    (builder.build().unwrap(), id)
}

fn fast_deadline(kind: EngineKind) -> EngineConfig {
    EngineConfig::default()
        .with_backend(kind)
        .with_workers(2)
        .unwrap()
        .with_flush_deadline(Duration::from_millis(1))
}

// The `collector_*` tests pin the server's per-(key, op) shard
// aggregation — the one request collector in the workspace.

#[test]
fn collector_is_bit_identical_to_decrypt_crt_batch_on_both_backends() {
    let key = keypair(64, 601);
    let mut rng = StdRng::seed_from_u64(602);
    // 70 singleton submissions: crosses the 64-lane shard boundary,
    // so the server must fill one shard and drain the remainder.
    let ms: Vec<Ubig> = (0..70)
        .map(|_| Ubig::random_below(&mut rng, &key.n))
        .collect();
    let cs: Vec<Ubig> = ms.iter().map(|m| m.modpow(&key.e, &key.n)).collect();
    for kind in EngineKind::ALL {
        let config = EngineConfig::default().with_backend(kind);
        let want = KeyedSession::new(key.clone(), config.clone())
            .unwrap()
            .decrypt_crt(&cs)
            .unwrap();
        assert_eq!(want, ms, "oracle roundtrip ({})", kind.name());
        // No deadline flush inside the test: only fill and drain.
        let config = config
            .with_workers(1)
            .unwrap()
            .with_flush_deadline(Duration::from_secs(600));
        let (server, id) = server_on(&key, config);
        let tickets: Vec<_> = cs
            .iter()
            .map(|c| {
                server
                    .try_submit(id, BatchOp::DecryptCrt, c.clone())
                    .unwrap()
            })
            .collect();
        await_until(|| tickets[..64].iter().all(|t| t.is_ready()) && server.pending_depth() == 6);
        assert_eq!(server.stats().fill_flushes, 1, "70 requests = 1 full shard");
        server.shutdown();
        let got: Vec<Ubig> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert_eq!(
            got,
            want,
            "one ticket per request, bit for bit ({})",
            kind.name()
        );
    }
}

#[test]
fn collector_sign_flow_matches_batch_signing() {
    let key = keypair(48, 603);
    let mut rng = StdRng::seed_from_u64(604);
    let ms: Vec<Ubig> = (0..9)
        .map(|_| Ubig::random_below(&mut rng, &key.n))
        .collect();
    for kind in EngineKind::ALL {
        let session =
            KeyedSession::new(key.clone(), EngineConfig::default().with_backend(kind)).unwrap();
        let (server, id) = server_on(&key, fast_deadline(kind));
        let tickets: Vec<_> = ms
            .iter()
            .map(|m| server.try_submit(id, BatchOp::Sign, m.clone()).unwrap())
            .collect();
        let sigs: Vec<Ubig> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert_eq!(sigs, session.sign(&ms).unwrap(), "{}", kind.name());
        assert!(session.verify(&ms, &sigs).unwrap().into_iter().all(|ok| ok));
        server.shutdown();
    }
}

#[test]
fn collector_flush_drains_and_can_refill() {
    let key = keypair(32, 605);
    let (server, id) = server_on(&key, fast_deadline(EngineKind::Cios));
    let m = Ubig::from(12345u64).rem(&key.n);
    let c = m.modpow(&key.e, &key.n);
    // Two rounds through the same server: each flush empties the
    // shard, and the next request opens a fresh one.
    for round in 1..=2u64 {
        let ticket = server
            .try_submit(id, BatchOp::DecryptCrt, c.clone())
            .unwrap();
        assert_eq!(ticket.wait(), Ok(m.clone()));
        await_until(|| server.pending_depth() == 0);
        assert_eq!(server.stats().completed_ok, round);
    }
    server.shutdown();
}

#[test]
fn session_honors_window_policy_and_shard_width() {
    let key = keypair(48, 606);
    let mut rng = StdRng::seed_from_u64(607);
    let ms: Vec<Ubig> = (0..10)
        .map(|_| Ubig::random_below(&mut rng, &key.n))
        .collect();
    let cs: Vec<Ubig> = ms.iter().map(|m| m.modpow(&key.e, &key.n)).collect();
    let oracle = KeyedSession::new(key.clone(), EngineConfig::default()).unwrap();
    let want = oracle.decrypt_crt(&cs).unwrap();
    let want_sigs = oracle.sign(&ms).unwrap();
    // Every window width and a narrow shard must change schedule and
    // fan-out, never results.
    for w in [1usize, 2, 4, 6] {
        let config = EngineConfig::default()
            .with_window(WindowPolicy::Fixed(w))
            .unwrap()
            .with_shard_lanes(3)
            .unwrap();
        let session = KeyedSession::new(key.clone(), config).unwrap();
        assert_eq!(session.decrypt_crt(&cs).unwrap(), want, "w={w}");
        assert_eq!(session.sign(&ms).unwrap(), want_sigs, "w={w}");
    }
}

#[test]
fn from_env_config_builds_a_working_session() {
    // In the default CI environment this is the CIOS path; under the
    // MMM_ENGINE=bitsliced job it exercises the override end to end.
    let key = keypair(32, 608);
    let config = EngineConfig::from_env().expect("test environment is clean");
    assert_eq!(config.backend(), EngineKind::default_kind());
    let session = KeyedSession::new(key.clone(), config).unwrap();
    let m = Ubig::from(99u64).rem(&key.n);
    let c = m.modpow(&key.e, &key.n);
    assert_eq!(session.decrypt_crt(&[c]).unwrap(), vec![m]);
}
