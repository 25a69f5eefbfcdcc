//! The repository benchmark: three seeded serving workloads run against
//! the workspace's public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rsa-hot-key --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! same traffic with the generator's probes on, then replays each
//! layer's public functions and prints the per-layer metrics. The last
//! line of standard output is the result object; the line before it
//! records provenance. See `perfbench/README.md`.

mod counting;
mod ecc_load;
mod replay;
mod rsa_load;
mod util;

use mmm_core::pool;
use mmm_core::{Cios52Kernel, EngineKind, MmmError, Quarantine, QuarantineStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsa_load::Spec;
use std::process::ExitCode;
use std::time::Instant;
use util::{json_num, json_str, median, percentile, Metrics};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Length of the serving probe the ECC workload's traced run adds (ECC
/// traffic bypasses `Server`).
const SERVE_PROBE_SECS: f64 = 2.0;

/// The end-to-end metrics every workload reports, in order.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "ops_s",
    "p50_ms",
    "tail_ms",
    "cpu_ms_per_op",
    "peak_rss_mb",
    "success_rate",
];

/// Per-layer metrics that are exact counts: they repeat exactly for a
/// seed, and both modes print them in the provenance record.
const EXACT_COUNTS: [&str; 5] = [
    "scan.batch_muls",
    "scan.table_muls",
    "scan.skipped_muls",
    "scan.model_cycles",
    "ecc.curve.field_muls_per_scalar_mul",
];

/// The per-layer metrics every traced run reports.
const PER_LAYER: &[&str] = &[
    "gen.lag_p99_ms",
    "trace.overhead_frac",
    "serve.submit_us",
    "serve.lanes_per_flush",
    "serve.deadline_flush_frac",
    "serve.queue_depth_p99",
    "serve.wait_p50_ms",
    "serve.overloaded",
    "serve.completed_err",
    "rsa.crt_full_shard_ms",
    "rsa.crt_one_lane_ms",
    "rsa.verify_tax",
    "rsa.hardened_tax",
    "crt.residue_us",
    "crt.half_scan_ms",
    "crt.garner_us",
    "crt.reencrypt_ms",
    "crt.accounted_frac",
    "crt.residue_1lane_us",
    "crt.half_scan_1lane_ms",
    "crt.garner_1lane_us",
    "crt.reencrypt_1lane_ms",
    "crt.blind_1lane_us",
    "crt.accounted_1lane_frac",
    "scan.batch_muls",
    "scan.table_muls",
    "scan.skipped_muls",
    "scan.model_cycles",
    "scan.kernel_frac",
    "scan.ns_per_batch_mul",
    "kernel.cios.l257_us",
    "kernel.cios.l513_us",
    "kernel.cios.l1025_us",
    "kernel.cios.l513_1lane_us",
    "kernel.cios52.l257_us",
    "kernel.cios52.l513_us",
    "kernel.cios52.l1025_us",
    "kernel.cios52.l513_1lane_us",
    "convert.load_us.l257",
    "convert.load_us.l513",
    "convert.store_us.l257",
    "convert.store_us.l513",
    "pool.key_hit_frac",
    "pool.engine_builds",
    "pool.evictions",
    "pool.checkout_us",
    "pool.miss_us",
    "verify.violations",
    "verify.corrected",
    "ecc.verify_call_ms",
    "ecc.ecdh_call_ms",
    "ecc.shards_per_call",
    "ecc.curve.scalar_mul_ms",
    "ecc.curve.double_us",
    "ecc.curve.add_us",
    "ecc.curve.to_affine_us",
    "ecc.curve.field_muls_per_scalar_mul",
    "ecc.curve.kernel_frac",
    "ecc.field.mul_us",
    "ecc.field.add_us",
    "ecc.field.sub_us",
    "ecc.field.inv_us",
    "ecc.field.to_mont_us",
];

/// A seeded generator for one purpose: every input of a run derives
/// from `--seed` and a fixed tag.
pub fn derive_rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag.wrapping_mul(0xbf58_476d_1ce4_e5b9),
    )
}

/// Requests attempted and how each ended.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub errors: u64,
    pub overloaded: u64,
    pub timeouts: u64,
    pub wrong: u64,
    pub wrong_examples: Vec<String>,
}

impl Tally {
    pub fn error(&mut self, e: &MmmError) {
        match e {
            MmmError::Overloaded { .. } => self.overloaded += 1,
            _ => self.errors += 1,
        }
    }

    pub fn timeout(&mut self) {
        self.timeouts += 1;
    }

    /// A wrong answer: it fails the run.
    pub fn wrong(&mut self, what: String) {
        self.wrong += 1;
        if self.wrong_examples.len() < 8 {
            self.wrong_examples.push(what);
        }
    }

    /// Failures of a replayed call are charged as wrong results: a
    /// replay runs on inputs that must succeed.
    pub fn absorb_wrong(&mut self, other: Tally) {
        if other.errors + other.overloaded + other.timeouts > 0 {
            self.wrong("replayed call failed with a typed error".to_string());
        }
        self.wrong += other.wrong;
        self.wrong_examples.extend(other.wrong_examples);
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.overloaded + self.timeouts
    }

    /// 1 − failed / attempted: the complement of the error rate.
    pub fn success_rate(&self) -> f64 {
        1.0 - self.failed() as f64 / self.attempted.max(1) as f64
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Removes every `MMM_*` variable before any library code reads the
/// environment, so each workload runs exactly the configuration it
/// pins. Returns what was found, for the provenance record.
fn pin_environment() -> Vec<(String, String)> {
    let found: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("MMM_"))
        .collect();
    for (k, _) in &found {
        std::env::remove_var(k);
    }
    found
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".to_string())
}

fn cpuinfo(key: &str) -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_else(|| "unavailable".to_string())
}

/// Everything one run produced.
#[derive(Default)]
struct Report {
    tally: Tally,
    metrics: Metrics,
    /// Exact counts, printed in both modes with the provenance.
    counts: Metrics,
    /// Sample counts behind the metrics.
    samples: Vec<(&'static str, usize)>,
    /// Workload constants (rates, percentiles, shares).
    shape: Vec<(&'static str, f64)>,
}

fn quarantine_delta(before: &QuarantineStats, report: &mut Report) -> (f64, f64) {
    let after = Quarantine::global().stats();
    let violations = (after.violations - before.violations) as f64;
    let corrected = (after.corrected - before.corrected) as f64;
    if violations > 0.0 || corrected > 0.0 || after.quarantined_backends > 0 {
        report.tally.wrong(format!(
            "integrity layer fired: {violations} violations, {corrected} corrected, {} backends quarantined",
            after.quarantined_backends
        ));
    }
    (violations, corrected)
}

/// Builds the fixture `SETUP_REPS` times (tearing down in between) and
/// returns the last one with the median set-up time in seconds. The
/// first set-up is timed from process start.
fn repeated_setup<F>(
    process_start: Instant,
    mut build: impl FnMut() -> Result<F, MmmError>,
    teardown: impl Fn(F),
) -> Result<(F, f64), MmmError> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut fixture: Option<F> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = fixture.take() {
            teardown(old);
            pool::global().clear();
        }
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        fixture = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((fixture.expect("at least one set-up"), median(&times)))
}

fn pool_delta(before: &pool::PoolStats, out: &mut Metrics) {
    let after = pool::global().stats();
    let hits = (after.key_hits - before.key_hits) as f64;
    let misses = (after.key_misses - before.key_misses) as f64;
    out.put("pool.key_hit_frac", hits / (hits + misses).max(1.0), "frac");
    out.put(
        "pool.engine_builds",
        (after.engine_builds - before.engine_builds) as f64,
        "count",
    );
    out.put(
        "pool.evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    );
}

/// The `serve` metrics of one traced open phase. `wait_p50_ms` subtracts
/// the replayed flush compute for the phase's typical shard shape.
fn serve_metrics(
    fx: &rsa_load::Fixture,
    tr: &rsa_load::ServeTrace,
    report: &mut Report,
) -> Result<(), MmmError> {
    let out = &mut report.metrics;
    out.put("serve.submit_us", median(&tr.probe.submit_us), "us");
    out.put("serve.lanes_per_flush", tr.lanes_per_flush(), "lanes");
    out.put(
        "serve.deadline_flush_frac",
        tr.deadline_flush_frac(),
        "frac",
    );
    out.put(
        "serve.queue_depth_p99",
        percentile(&tr.probe.depth, 99.0),
        "requests",
    );
    let shape = tr.lanes_per_flush().round().clamp(1.0, 64.0) as usize;
    let session = fx
        .server
        .session(fx.key_id(0))
        .expect("key 0 is registered");
    let (plain, cs) = replay::shard(&fx.traffic.msgs[0], shape);
    let flush = replay::crt_ms(session, &plain, &cs, 9, &mut report.tally)?;
    out.put(
        "serve.wait_p50_ms",
        median(&tr.open.latency_ms) - flush,
        "ms",
    );
    out.put("serve.overloaded", tr.stats.overloaded as f64, "count");
    out.put(
        "serve.completed_err",
        tr.stats.completed_err as f64,
        "count",
    );
    report
        .samples
        .push(("traced_submits", tr.probe.submit_us.len()));
    Ok(())
}

fn run_rsa(
    spec: Spec,
    args: &Args,
    process_start: Instant,
    report: &mut Report,
) -> Result<(), MmmError> {
    let mut setup_tally = Tally::default();
    let (mut fx, setup_s) = repeated_setup(
        process_start,
        || rsa_load::Fixture::build(spec, args.seed, &mut setup_tally),
        rsa_load::Fixture::shutdown,
    )?;
    report.tally.absorb_wrong(setup_tally);
    report.shape.extend([
        ("open_rate_per_s", spec.rate),
        ("closed_inflight", spec.inflight as f64),
        ("closed_share", spec.closed_share),
        ("tail_percentile", spec.tail_pct),
        ("keys", spec.keys as f64),
    ]);
    let q0 = Quarantine::global().stats();
    let key = fx.traffic.keys[0].clone();
    let captured = fx.traffic.msgs[0].clone();
    let tally = &mut report.tally;
    if !args.trace {
        let m = rsa_load::measure(&mut fx, args.seconds, tally);
        report.samples.push(("latency_samples", m.latency_samples));
        fx.shutdown();
        let out = &mut report.metrics;
        out.put("setup_s", setup_s, "s");
        out.put("ops_s", m.ops_s, "1/s");
        out.put("p50_ms", m.p50_ms, "ms");
        out.put("tail_ms", m.tail_ms, "ms");
        out.put("cpu_ms_per_op", m.cpu_ms_per_op, "ms");
        out.put("peak_rss_mb", util::peak_rss_mb(), "MiB");
        out.put("success_rate", report.tally.success_rate(), "frac");
        quarantine_delta(&q0, report);
        replay::scan_counts(&key, &captured, spec.hardening, &mut report.counts);
        return Ok(());
    }

    // Traced: the untraced and traced halves of the throughput phase
    // alternate in quarters, then one traced open phase.
    let (mut plain_ops, mut traced_ops) = (0.0, 0.0);
    let throughput_secs = if spec.closed_share > 0.0 {
        args.seconds * spec.closed_share
    } else {
        args.seconds / 2.0
    };
    let quarter = throughput_secs / 4.0;
    let mut probe = rsa_load::Probe::default();
    for q in 0..4 {
        let traced = q % 2 == 1;
        let p = traced.then_some(&mut probe);
        let ops = if spec.closed_share > 0.0 {
            fx.closed(quarter, p, tally)
        } else {
            fx.open(spec.rate, quarter, p, tally).achieved_ops_s
        };
        if traced {
            traced_ops += ops
        } else {
            plain_ops += ops
        }
    }
    let open_secs = args.seconds - throughput_secs;
    let p0 = pool::global().stats();
    let tr = rsa_load::traced_open(&mut fx, open_secs, tally);
    let out = &mut report.metrics;
    out.put("gen.lag_p99_ms", percentile(&tr.open.lag_ms, 99.0), "ms");
    out.put(
        "trace.overhead_frac",
        traced_ops / plain_ops.max(1e-9),
        "ratio",
    );
    pool_delta(&p0, out);
    serve_metrics(&fx, &tr, report)?;
    fx.shutdown();
    let (violations, corrected) = quarantine_delta(&q0, report);
    report.metrics.put("verify.violations", violations, "count");
    report.metrics.put("verify.corrected", corrected, "count");
    layer_replays(&key, &captured, spec.hardening, None, args.seed, report)
}

/// The replays every traced run makes, whatever the workload: RSA, CRT,
/// scan, kernel, conversion, pool and ECC layers.
fn layer_replays(
    key: &mmm_rsa::RsaKeyPair,
    captured: &[(mmm_bigint::Ubig, mmm_bigint::Ubig)],
    hardening: mmm_core::HardeningMode,
    ecc: Option<&ecc_load::Fixture>,
    seed: u64,
    report: &mut Report,
) -> Result<(), MmmError> {
    replay::rsa_layers(
        key,
        captured,
        hardening,
        &mut report.metrics,
        &mut report.tally,
    )?;
    replay::engine_layers(key, seed, &mut report.metrics);
    let built;
    let ecc = match ecc {
        Some(fx) => fx,
        None => {
            built = ecc_load::Fixture::build(seed)?;
            &built
        }
    };
    replay::ecc_layers(ecc, seed, &mut report.metrics, &mut report.tally)?;
    // The exact counts go to the provenance record too, as in the
    // untraced mode, so the two modes can be compared.
    for m in &report.metrics.0 {
        if EXACT_COUNTS.contains(&m.name.as_str()) {
            report.counts.0.push(m.clone());
        }
    }
    Ok(())
}

fn run_ecc(args: &Args, process_start: Instant, report: &mut Report) -> Result<(), MmmError> {
    let (fx, setup_s) =
        repeated_setup(process_start, || ecc_load::Fixture::build(args.seed), drop)?;
    fx.oracle_check(&mut report.tally)?;
    report.shape.extend([
        ("call_requests", ecc_load::CALL_REQUESTS as f64),
        ("tail_percentile", ecc_load::TAIL_PCT),
    ]);
    let q0 = Quarantine::global().stats();
    let mut cursor = 0;
    if !args.trace {
        let l = fx.closed(args.seconds, &mut cursor, &mut report.tally);
        report.samples.push(("calls", l.call_ms.len()));
        let out = &mut report.metrics;
        out.put("setup_s", setup_s, "s");
        out.put("ops_s", l.ops_s, "1/s");
        out.put("p50_ms", median(&l.call_ms), "ms");
        out.put("tail_ms", percentile(&l.call_ms, ecc_load::TAIL_PCT), "ms");
        out.put("cpu_ms_per_op", l.cpu_ms_per_op, "ms");
        out.put("peak_rss_mb", util::peak_rss_mb(), "MiB");
        out.put("success_rate", report.tally.success_rate(), "frac");
        quarantine_delta(&q0, report);
        let muls = replay::field_muls_per_scalar_mul(&fx, args.seed)?;
        report
            .counts
            .put("ecc.curve.field_muls_per_scalar_mul", muls, "count");
        let traffic = rsa_load::Traffic::generate(&rsa_load::HOT_KEY, args.seed);
        replay::scan_counts(
            &traffic.keys[0],
            &traffic.msgs[0],
            mmm_core::HardeningMode::Off,
            &mut report.counts,
        );
        return Ok(());
    }

    // Traced: quarters alternate as on the RSA workloads. The ECC loop
    // records its per-call spans in both modes and has no live probes,
    // so the overhead ratio here is the drift between alternate quarters.
    let p0 = pool::global().stats();
    let (mut plain_ops, mut traced_ops) = (0.0, 0.0);
    let mut gaps = Vec::new();
    for q in 0..4 {
        let l = fx.closed(args.seconds / 4.0, &mut cursor, &mut report.tally);
        if q % 2 == 1 {
            traced_ops += l.ops_s;
            gaps.extend(l.gap_ms);
        } else {
            plain_ops += l.ops_s;
        }
    }
    let out = &mut report.metrics;
    out.put("gen.lag_p99_ms", percentile(&gaps, 99.0), "ms");
    out.put(
        "trace.overhead_frac",
        traced_ops / plain_ops.max(1e-9),
        "ratio",
    );
    pool_delta(&p0, out);
    let (violations, corrected) = quarantine_delta(&q0, report);
    report.metrics.put("verify.violations", violations, "count");
    report.metrics.put("verify.corrected", corrected, "count");

    // ECC traffic never reaches `Server`: the serve layer is measured on
    // a short probe at the rsa-hot-key shape instead.
    let mut probe_tally = Tally::default();
    let mut rfx = rsa_load::Fixture::build(rsa_load::HOT_KEY, args.seed, &mut probe_tally)?;
    let tr = rsa_load::traced_open(&mut rfx, SERVE_PROBE_SECS, &mut probe_tally);
    serve_metrics(&rfx, &tr, report)?;
    let key = rfx.traffic.keys[0].clone();
    let captured = rfx.traffic.msgs[0].clone();
    rfx.shutdown();
    report.tally.absorb_wrong(probe_tally);
    layer_replays(
        &key,
        &captured,
        mmm_core::HardeningMode::Off,
        Some(&fx),
        args.seed,
        report,
    )
}

fn provenance(args: &Args, env: &[(String, String)], report: &Report) -> String {
    let kv = |pairs: Vec<(String, String)>| {
        let body: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), v))
            .collect();
        format!("{{{}}}", body.join(", "))
    };
    let env_obj = kv(env.iter().map(|(k, v)| (k.clone(), json_str(v))).collect());
    let samples = kv(report
        .samples
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect());
    let shape = kv(report
        .shape
        .iter()
        .map(|(k, v)| (k.to_string(), json_num(*v)))
        .collect());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"runs\": 1, \"setup_reps\": {}, \
         \"samples\": {}, \"shape\": {}, \"counts\": {}, \"git_revision\": {}, \"rustc\": {}, \"cpu_model\": {}, \"cpu_flags\": {}, \
         \"nproc\": {}, \"cios52_kernel\": {}, \"default_engine\": {}, \"mmm_env_found_and_cleared\": {}, \"failures\": {{\"errors\": {}, \
         \"overloaded\": {}, \"timeouts\": {}, \"wrong\": {}, \"wrong_examples\": [{}]}}}}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        SETUP_REPS,
        samples,
        shape,
        report.counts.to_json(),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&cpuinfo("model name")),
        json_str(&cpuinfo("flags")),
        nproc,
        json_str(Cios52Kernel::active().name()),
        json_str(EngineKind::default_kind().name()),
        env_obj,
        report.tally.errors,
        report.tally.overloaded,
        report.tally.timeouts,
        report.tally.wrong,
        report.tally.wrong_examples.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(", "),
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let env = pin_environment();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <rsa-hot-key|ecc-p256-verify|rsa-multitenant-ct> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let run = match args.workload.as_str() {
        "rsa-hot-key" => run_rsa(rsa_load::HOT_KEY, &args, process_start, &mut report),
        "rsa-multitenant-ct" => run_rsa(rsa_load::MULTITENANT, &args, process_start, &mut report),
        "ecc-p256-verify" => run_ecc(&args, process_start, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = run {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::from(1);
    }
    let expected: Vec<&str> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let got: Vec<&str> = report.metrics.0.iter().map(|m| m.name.as_str()).collect();
    let mut want_sorted = expected.clone();
    want_sorted.sort_unstable();
    let mut got_sorted = got.clone();
    got_sorted.sort_unstable();
    assert_eq!(
        got_sorted, want_sorted,
        "the run must report exactly the declared metrics"
    );

    println!("{}", provenance(&args, &env, &report));
    let correct = report.tally.wrong == 0;
    for w in &report.tally.wrong_examples {
        eprintln!("perfbench: wrong result: {w}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct,
        report.tally.attempted.max(1),
        report.tally.failed(),
        report.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
