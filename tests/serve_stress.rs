//! Multi-threaded stress for the serving plane: concurrent producers
//! hammering one `Server` over rotating keys and both submit paths,
//! for **every** served op kind (RSA sign, decrypt and CRT decrypt;
//! ECDSA verify; ECDH) on **every** backend.
//!
//! The properties under test are the serving layer's contract:
//!
//! * **bit-identity** — every response equals its oracle answer
//!   (`tests/common`), regardless of which worker flushed it, how
//!   requests interleaved across shards, or which submit path admitted
//!   them;
//! * **exactly one response** — every admitted request resolves its
//!   ticket exactly once (waiting consumes the ticket, so at most
//!   once is structural; the test proves at least once by joining
//!   every producer);
//! * **order independence** — shards are keyed by `(key, op)`, so
//!   interleaved traffic for different keys must never cross-talk;
//! * **fill-or-deadline** — a lone request is flushed by the deadline,
//!   a full shard by the fill, each without waiting for the other.

#[macro_use]
mod common;

use common::OpCase;
use montgomery_systolic::core::config::EngineConfig;
use montgomery_systolic::core::serve::Server;
use montgomery_systolic::core::EngineKind;
use std::time::{Duration, Instant};

const PRODUCERS: usize = 4;
const PER_PRODUCER: usize = 24;

#[test]
fn concurrent_producers_rotating_keys_both_paths_all_backends() {
    fn check<C: OpCase>(case: &C) {
        for kind in EngineKind::ALL {
            let ctx = format!("{} on {}", case.name(), kind.name());
            let config = EngineConfig::default()
                .with_backend(kind)
                .with_workers(2)
                .unwrap()
                .with_flush_deadline(Duration::from_millis(1))
                .with_queue_bound(64)
                .unwrap();
            let mut builder = Server::builder(config);
            let key_ids = [0, 1].map(|which| case.register(&mut builder, which));
            let server = builder.build().unwrap();

            std::thread::scope(|scope| {
                for p in 0..PRODUCERS {
                    let (server, key_ids, ctx) = (&server, &key_ids, &ctx);
                    scope.spawn(move || {
                        // Per-key oracle traffic, rotated so shards for
                        // both keys are live at once.
                        let seed = 7000 + p as u64;
                        let mut traffic = [0, 1]
                            .map(|which| case.traffic(which, seed, PER_PRODUCER / 2).into_iter());
                        for i in 0..PER_PRODUCER {
                            let which = (p + i) % 2;
                            let (req, want) = traffic[which].next().unwrap();
                            // Alternate the two submit paths.
                            let ticket = if i % 2 == 0 {
                                server
                                    .try_submit(key_ids[which], case.op(), req)
                                    .expect("queue bound 64 cannot fill with 4 producers")
                            } else {
                                server
                                    .submit(key_ids[which], case.op(), req, Duration::from_secs(30))
                                    .expect("blocking submit within budget")
                            };
                            // Exactly-one-response: `wait` consumes the
                            // ticket and must deliver the oracle's answer.
                            assert_eq!(ticket.wait(), Ok(want), "producer {p}, request {i}, {ctx}");
                        }
                    });
                }
            });

            let stats = server.stats();
            let total = (PRODUCERS * PER_PRODUCER) as u64;
            assert_eq!(stats.submitted, total, "{ctx}");
            assert_eq!(stats.completed_ok, total, "{ctx}");
            assert_eq!(stats.completed_err, 0, "{ctx}");
            assert_eq!(stats.rejected_invalid, 0, "{ctx}");
            assert_eq!(stats.worker_restarts, 0, "{ctx}");
            assert!(
                stats.fill_flushes + stats.deadline_flushes + stats.drain_flushes > 0,
                "something must have flushed ({ctx})"
            );
            server.shutdown();
        }
    }
    for_each_op!(check);
}

#[test]
fn singleton_is_flushed_by_deadline_not_starved() {
    // One lonely request must not wait for 63 shard peers: the
    // deadline flush answers it in deadline + MAX_PARK + epsilon, far
    // below the multi-second starvation a fill-only policy would show.
    fn check<C: OpCase>(case: &C) {
        let config = EngineConfig::default()
            .with_workers(1)
            .unwrap()
            .with_flush_deadline(Duration::from_millis(5));
        let (server, id) = case.server(config);
        let (req, want) = case.traffic(0, 710, 1).remove(0);
        let t0 = Instant::now();
        let ticket = server.try_submit(id, case.op(), req).unwrap();
        assert_eq!(ticket.wait(), Ok(want), "{}", case.name());
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "singleton took {:?} ({})",
            t0.elapsed(),
            case.name()
        );
        let stats = server.stats();
        assert_eq!(stats.deadline_flushes, 1, "flushed by deadline");
        assert_eq!(stats.fill_flushes, 0);
        server.shutdown();
    }
    for_each_op!(check);
}

#[test]
fn full_shard_flushes_on_fill_without_waiting_for_deadline() {
    // With a deliberately huge deadline, only the fill trigger can
    // explain a prompt answer for a full shard of requests.
    fn check<C: OpCase>(case: &C) {
        let lanes = 4;
        let config = EngineConfig::default()
            .with_workers(1)
            .unwrap()
            .with_shard_lanes(lanes)
            .unwrap()
            .with_flush_deadline(Duration::from_secs(600));
        let (server, id) = case.server(config);
        let tickets: Vec<_> = case
            .traffic(0, 712, lanes)
            .into_iter()
            .map(|(req, want)| (server.try_submit(id, case.op(), req).unwrap(), want))
            .collect();
        for (ticket, want) in tickets {
            assert_eq!(ticket.wait(), Ok(want), "{}", case.name());
        }
        let stats = server.stats();
        assert_eq!(stats.fill_flushes, 1, "one full-shard flush");
        assert_eq!(stats.deadline_flushes, 0, "deadline never fired");
        server.shutdown();
    }
    for_each_op!(check);
}
