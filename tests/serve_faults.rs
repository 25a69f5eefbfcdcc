//! The serving-layer fault-injection suite: every production failure
//! shape — worker panics, flush stalls, queue-full storms, shutdown
//! under load — driven through `serve::faults` for **every** served op
//! kind (RSA sign, decrypt and CRT decrypt; ECDSA verify; ECDH) on
//! **every** backend, asserting the contract the serving plane exists
//! for: failures surface as **typed per-request errors**, never as
//! wrong answers, deadlocks, or lost responses. Every answer is
//! checked against its oracle (`tests/common`).

#[macro_use]
mod common;

use common::OpCase;
use montgomery_systolic::core::config::EngineConfig;
use montgomery_systolic::core::error::MmmError;
use montgomery_systolic::core::EngineKind;
use std::time::{Duration, Instant};

fn config(kind: EngineKind) -> EngineConfig {
    EngineConfig::default()
        .with_backend(kind)
        .with_workers(2)
        .unwrap()
        .with_flush_deadline(Duration::from_millis(1))
}

#[test]
fn injected_worker_panic_answers_every_request_and_recovers() {
    fn check<C: OpCase>(case: &C) {
        for kind in EngineKind::ALL {
            let ctx = format!("{} on {}", case.name(), kind.name());
            let (server, id) = case.server(config(kind));
            // One armed panic: the next flush panics *outside* the
            // per-flush net, unwinding (and restarting) a whole worker.
            server.faults().inject_flush_panics(1);
            let wave1: Vec<_> = case
                .traffic(0, 801, 8)
                .into_iter()
                .map(|(req, want)| (server.try_submit(id, case.op(), req).unwrap(), want))
                .collect();
            let mut panicked = 0usize;
            for (ticket, want) in wave1 {
                // Never a wrong answer, never a lost response: each
                // ticket resolves with either the oracle's answer or
                // the typed panic error.
                match ticket.wait() {
                    Ok(got) => assert_eq!(got, want, "{ctx}"),
                    Err(MmmError::WorkerPanicked) => panicked += 1,
                    Err(other) => panic!("unexpected error {other:?} ({ctx})"),
                }
            }
            assert!(panicked >= 1, "the armed panic hit a shard in flight");
            assert_eq!(server.faults().panics_fired(), 1);
            // The tickets resolved while the panic unwound; the
            // supervisor counts the restart once the unwind completes.
            let t0 = Instant::now();
            while server.stats().worker_restarts == 0 {
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "panic escaped the serve loop and the supervisor restarted it ({ctx})"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            // The pool survived the unwind: fresh traffic is answered
            // correctly by the recovered worker set.
            for (req, want) in case.traffic(0, 802, 4) {
                let ticket = server.try_submit(id, case.op(), req).unwrap();
                assert_eq!(ticket.wait(), Ok(want), "{ctx}");
            }
            server.shutdown();
        }
    }
    for_each_op!(check);
}

#[test]
fn flush_stalls_delay_but_never_corrupt() {
    fn check<C: OpCase>(case: &C) {
        for kind in EngineKind::ALL {
            let ctx = format!("{} on {}", case.name(), kind.name());
            let (server, id) = case.server(config(kind));
            server
                .faults()
                .inject_flush_stalls(Duration::from_millis(40), 1);
            let (req, want) = case.traffic(0, 811, 1).remove(0);
            let t0 = Instant::now();
            let ticket = server.try_submit(id, case.op(), req).unwrap();
            assert_eq!(ticket.wait(), Ok(want), "{ctx}");
            assert!(
                t0.elapsed() >= Duration::from_millis(40),
                "the stall was actually applied ({ctx})"
            );
            assert_eq!(server.faults().stalls_fired(), 1);
            // And the stall was one-shot: the next request is fast
            // again and equally correct.
            let (req, want) = case.traffic(0, 812, 1).remove(0);
            let ticket = server.try_submit(id, case.op(), req).unwrap();
            assert_eq!(ticket.wait(), Ok(want), "{ctx}");
            server.shutdown();
        }
    }
    for_each_op!(check);
}

#[test]
fn queue_full_storm_surfaces_overloaded_then_clears() {
    fn check<C: OpCase>(case: &C) {
        for kind in EngineKind::ALL {
            let ctx = format!("{} on {}", case.name(), kind.name());
            let (server, id) = case.server(config(kind));
            let storm = 5usize;
            server.faults().inject_queue_full(storm);
            let mut requests = case.traffic(0, 821, storm + 1);
            let (last, want) = requests.pop().unwrap();
            for (req, _) in requests {
                assert_eq!(
                    server.try_submit(id, case.op(), req).unwrap_err(),
                    MmmError::Overloaded { capacity: 1024 },
                    "{ctx}"
                );
            }
            assert_eq!(server.faults().fulls_fired(), storm);
            // The storm passes; the very next submission is served.
            let ticket = server.try_submit(id, case.op(), last).unwrap();
            assert_eq!(ticket.wait(), Ok(want), "{ctx}");
            let stats = server.stats();
            assert_eq!(stats.overloaded, storm as u64);
            assert_eq!(stats.submitted, 1);
            server.shutdown();
        }
    }
    for_each_op!(check);
}

#[test]
fn real_queue_saturation_backpressures_both_submit_paths() {
    // No injection here: a genuinely wedged worker (armed stall) and a
    // two-slot queue produce the real thing — `try_submit` refuses
    // with `Overloaded`, the blocking path gives up with
    // `DeadlineExceeded` after its budget — and every admitted request
    // is still answered correctly once the stall clears.
    fn check<C: OpCase>(case: &C) {
        let ctx = case.name();
        let config = EngineConfig::default()
            .with_workers(1)
            .unwrap()
            .with_flush_deadline(Duration::from_micros(100))
            .with_queue_bound(2)
            .unwrap();
        let (server, id) = case.server(config);
        server
            .faults()
            .inject_flush_stalls(Duration::from_millis(300), 1);
        let mut requests = case.traffic(0, 831, 5);
        let overflow: Vec<_> = requests.drain(3..).map(|(req, _)| req).collect();
        let mut requests = requests.into_iter();
        // First request reaches the worker and its flush stalls 300 ms.
        let (req, want) = requests.next().unwrap();
        let mut admitted = vec![(server.try_submit(id, case.op(), req).unwrap(), want)];
        let stall_seen = Instant::now();
        while server.faults().stalls_fired() == 0 {
            assert!(
                stall_seen.elapsed() < Duration::from_secs(10),
                "worker never reached the stalled flush ({ctx})"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // The lone worker is asleep inside the flush: fill both queue
        // slots, then watch both submit paths push back.
        for (req, want) in requests {
            admitted.push((server.try_submit(id, case.op(), req).unwrap(), want));
        }
        let [a, b] = <[_; 2]>::try_from(overflow).unwrap();
        assert_eq!(
            server.try_submit(id, case.op(), a).unwrap_err(),
            MmmError::Overloaded { capacity: 2 },
            "{ctx}"
        );
        assert_eq!(
            server
                .submit(id, case.op(), b, Duration::from_millis(20))
                .unwrap_err(),
            MmmError::DeadlineExceeded,
            "{ctx}"
        );
        // Backpressure refused the overflow; it never lost the backlog.
        for (ticket, want) in admitted {
            assert_eq!(ticket.wait(), Ok(want), "{ctx}");
        }
        let stats = server.stats();
        assert_eq!(stats.overloaded, 1);
        assert_eq!(stats.submit_timeouts, 1);
        assert_eq!(stats.submitted, 3);
        server.shutdown();
    }
    for_each_op!(check);
}

#[test]
fn shutdown_drains_pending_shards_and_answers_in_flight() {
    fn check<C: OpCase>(case: &C) {
        for kind in EngineKind::ALL {
            let ctx = format!("{} on {}", case.name(), kind.name());
            // A deadline far beyond the test's lifetime: only the
            // shutdown drain can explain these tickets resolving.
            let config = config(kind).with_flush_deadline(Duration::from_secs(600));
            let (server, id) = case.server(config);
            let tickets: Vec<_> = case
                .traffic(0, 841, 6)
                .into_iter()
                .map(|(req, want)| (server.try_submit(id, case.op(), req).unwrap(), want))
                .collect();
            server.shutdown();
            for (ticket, want) in tickets {
                assert_eq!(ticket.wait(), Ok(want), "drained at shutdown ({ctx})");
            }
        }
    }
    for_each_op!(check);
}

#[test]
fn combined_storm_never_loses_or_corrupts_a_response() {
    // All three injections armed at once, both submit paths in use:
    // the accounting identity `attempts = refused + admitted` and
    // `admitted = responses` must survive, and every successful
    // response must carry the oracle's answer.
    fn check<C: OpCase>(case: &C) {
        for kind in EngineKind::ALL {
            let ctx = format!("{} on {}", case.name(), kind.name());
            let (server, id) = case.server(config(kind));
            server.faults().inject_flush_panics(2);
            server
                .faults()
                .inject_flush_stalls(Duration::from_millis(5), 2);
            server.faults().inject_queue_full(3);
            let mut requests = case.traffic(0, 851, 24).into_iter();
            let mut refused = 0usize;
            let mut ok = 0usize;
            let mut panicked = 0usize;
            // Submit in waves, waiting out each wave before the next,
            // so the armed panics cannot all collapse into one
            // mega-flush: each wave forces at least one flush of its
            // own.
            for w in 0..4 {
                let mut admitted = Vec::new();
                for (i, (req, want)) in requests.by_ref().take(6).enumerate() {
                    let submitted = if (w + i) % 2 == 0 {
                        server.try_submit(id, case.op(), req)
                    } else {
                        server.submit(id, case.op(), req, Duration::from_secs(30))
                    };
                    match submitted {
                        Ok(ticket) => admitted.push((ticket, want)),
                        Err(MmmError::Overloaded { .. }) => refused += 1,
                        Err(other) => panic!("unexpected refusal {other:?} ({ctx})"),
                    }
                }
                for (ticket, want) in admitted {
                    match ticket.wait() {
                        Ok(got) => {
                            assert_eq!(got, want, "never a wrong answer ({ctx})");
                            ok += 1;
                        }
                        Err(MmmError::WorkerPanicked) => panicked += 1,
                        Err(other) => panic!("unexpected error {other:?} ({ctx})"),
                    }
                }
            }
            assert_eq!(refused, 3, "exactly the armed storm ({ctx})");
            assert_eq!(ok + panicked, 24 - refused, "no lost responses ({ctx})");
            assert_eq!(server.faults().panics_fired(), 2);
            assert!(
                ok >= 1,
                "the server made progress through the storm ({ctx})"
            );
            server.shutdown();
        }
    }
    for_each_op!(check);
}

#[test]
fn malformed_requests_bounce_at_admission_with_typed_errors() {
    // Submit-time validation: a malformed request gets its typed error
    // immediately, never enters a shard, and the server keeps serving.
    fn check<C: OpCase>(case: &C) {
        let ctx = case.name();
        let (server, id) = case.server(config(EngineKind::Cios));
        let bad = case.malformed();
        let count = bad.len() as u64;
        for (req, err) in bad {
            assert_eq!(
                server.try_submit(id, case.op(), req).unwrap_err(),
                err,
                "{ctx}"
            );
        }
        for (req, want) in case.traffic(0, 861, 3) {
            let ticket = server.try_submit(id, case.op(), req).unwrap();
            assert_eq!(ticket.wait(), Ok(want), "{ctx}");
        }
        let stats = server.stats();
        assert_eq!(stats.rejected_invalid, count, "{ctx}");
        assert_eq!(stats.submitted, 3, "{ctx}");
        server.shutdown();
    }
    for_each_op!(check);
}
