//! Small measurement helpers: order statistics, process CPU and memory
//! readings from `/proc`, and a minimal JSON writer (the benchmark has
//! no dependencies beyond the workspace crates).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Median of `xs` (midpoint of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile of `xs` by linear interpolation between the
/// closest ranks (0 for an empty slice).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Milliseconds in a duration, with full precision.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration, with full precision.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` `samples` times and returns the median wall time of one
/// run in microseconds. One untimed call first warms caches and any
/// lazily built state.
pub fn median_us(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            us(t.elapsed())
        })
        .collect();
    median(&times)
}

/// User + system CPU time of the whole process (every thread, including
/// exited ones), from `/proc/self/stat`. Linux reports it in ticks of
/// `USER_HZ`, which is 100 on every supported architecture.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) is parenthesised and may contain
    // spaces; fields after it are space-separated. utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_millis(ticks * 10)
}

/// Latency percentiles per fixed-length window: `samples` are
/// `(due offset in seconds, latency)` pairs of one phase, bucketed by
/// due time. Returns each window's median and `tail_pct` percentile.
/// A median over these stays steady when the host slows down for a
/// minority of the run, where one percentile over the whole run would
/// follow the slow stretch.
pub fn window_percentiles(
    samples: &[(f64, f64)],
    window_secs: f64,
    tail_pct: f64,
) -> (Vec<f64>, Vec<f64>) {
    let mut buckets: Vec<Vec<f64>> = Vec::new();
    for &(at, l) in samples {
        let i = (at / window_secs) as usize;
        if buckets.len() <= i {
            buckets.resize_with(i + 1, Vec::new);
        }
        buckets[i].push(l);
    }
    buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| (median(b), percentile(b, tail_pct)))
        .unzip()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics, printed as a JSON object.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Renders `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (which JSON cannot carry) become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}
