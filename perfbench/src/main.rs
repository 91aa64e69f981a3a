//! End-to-end benchmark of the BNCG stability engine and its daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solve_sweep|serve_mixed|serve_flood> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, runs whole rounds of
//! a fixed list of operations for `--seconds`, checks every answer with
//! an oracle of its own, and prints one JSON object as its last line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the run is split into untraced and traced halves, a layer replay
//! follows, the span file is written, and the metrics are the per-layer
//! ones. See `perfbench/README.md`.

mod inst;
mod json;
mod layers;
mod oracle;
mod req;
mod serve;
mod solve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where spans and the atlas corpus go (inside the checkout).
    pub out: PathBuf,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

#[derive(Default)]
pub struct Report {
    /// Per op class: (attempted, failed).
    pub classes: BTreeMap<&'static str, (u64, u64)>,
    /// Answers that disagreed with the oracle (the first few are kept).
    pub wrong: Vec<String>,
    pub wrong_count: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Counts one attempted operation whose answer was checked.
    pub fn checked(&mut self, class: &'static str, verdict: Result<(), String>) {
        self.classes.entry(class).or_default().0 += 1;
        if let Err(e) = verdict {
            self.wrong_count += 1;
            if self.wrong.len() < 8 {
                self.wrong.push(format!("{class}: {e}"));
            }
        }
    }

    /// Counts one attempted operation that failed outright.
    pub fn failed(&mut self, class: &'static str) {
        let e = self.classes.entry(class).or_default();
        e.0 += 1;
        e.1 += 1;
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }
}

/// Runs one warm-up round, then whole rounds until `seconds` have
/// passed (at least `min` rounds). In a traced run the first half is
/// untraced and the second traced; the returned pair holds each half's
/// round times (s). The closure learns whether its round is timed: the
/// warm-up round is checked like any other, but its times, latencies and
/// operations are not reported.
pub fn run_rounds(
    cfg: &Cfg,
    min: usize,
    tracer: &mut Tracer,
    mut round: impl FnMut(&mut Tracer, bool) -> f64,
) -> (Vec<f64>, Vec<f64>) {
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let split = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    tracer.enabled = false;
    round(tracer, false);
    while plain.len() < min || start.elapsed().as_secs_f64() < split {
        plain.push(round(tracer, true));
    }
    if cfg.trace {
        tracer.enabled = true;
        while traced.len() < min || start.elapsed().as_secs_f64() < cfg.seconds {
            tracer.open("round", traced.len() as u64);
            traced.push(round(tracer, true));
            tracer.close();
        }
    }
    (plain, traced)
}

/// Median of several timed set-ups (s).
pub fn setup_median<T>(reps: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (trace::median(&times), last.expect("reps >= 1"))
}

/// `throughput_ops_s`: one round's operations over the median round
/// time (1/s). Like `sweep_s` it is a median over the whole run, so a
/// stalled round or a slow spell of the shared host in part of the run
/// does not set it.
pub fn round_rate(ops_per_round: usize, round_s: &[f64]) -> Metric {
    metric(
        "throughput_ops_s",
        ops_per_round as f64 / trace::median(round_s),
        "1/s",
    )
}

/// Latency metrics from per-request times: p50, and p99 when at least
/// 10 samples lie beyond it. The per-class breakdown goes to stderr.
pub fn latency_metrics(rep: &mut Report, samples: &mut trace::Samples) {
    let n = samples.len();
    eprintln!("latency samples: {n}; per op class (samples, p50 ms, p99 ms):");
    for (class, k, p50, p99) in samples.by_class() {
        eprintln!(
            "  {class:<22} {k:>8} {:>10.3} {:>10.3}",
            p50 * 1e3,
            p99 * 1e3
        );
    }
    rep.push(metric("latency_p50_ms", samples.quantile(0.5) * 1e3, "ms"));
    if n >= 1000 {
        rep.push(metric("latency_p99_ms", samples.quantile(0.99) * 1e3, "ms"));
    } else {
        eprintln!("latency_p99_ms withheld: fewer than 10 samples lie beyond p99");
    }
}

/// The process's peak resident set, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The tracing overhead metrics, from both halves of a traced run.
pub fn overhead_metrics(plain: &[f64], traced: &[f64]) -> Vec<Metric> {
    let (p, t) = (trace::median(plain), trace::median(traced));
    eprintln!(
        "tracing overhead: traced sweep_s {t:.4} s vs untraced {p:.4} s ({:.3}x)",
        t / p
    );
    vec![
        metric("trace.sweep_s_untraced", p, "s"),
        metric("trace.sweep_s_traced", t, "s"),
        metric("trace.overhead_ratio", t / p, "ratio"),
    ]
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <solve_sweep|serve_mixed|serve_flood> \
         --seed N --seconds S --trace <0|1>"
    );
    std::process::exit(2);
}

extern "C" {
    /// glibc's allocator tunable setter.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_MMAP_THRESHOLD`.
const M_MMAP_THRESHOLD: i32 = -3;

fn main() {
    // Pin the mmap threshold at glibc's 128 KiB default. Left dynamic,
    // it rises after the first large free, and whether later n = 1024
    // distance matrices stay resident then depends on thread timing:
    // the same seed read 10.3 or 13.9 MB peak RSS. Pinned, peak RSS
    // follows the program's live memory.
    // SAFETY: mallopt takes two plain integers, touches only allocator
    // settings, and runs before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let Some(v) = it.next() else { usage() };
        kv.insert(k.trim_start_matches("--").to_string(), v.clone());
    }
    let get = |k: &str| kv.get(k).cloned().unwrap_or_else(|| usage());
    let workload = get("workload");
    let cfg = Cfg {
        seed: get("seed").parse().unwrap_or_else(|_| usage()),
        seconds: get("seconds").parse().unwrap_or_else(|_| usage()),
        trace: match get("trace").as_str() {
            "0" => false,
            "1" => true,
            _ => usage(),
        },
        out: PathBuf::from("perfbench/out"),
    };
    let result = match workload.as_str() {
        "solve_sweep" => solve::run(&cfg),
        "serve_mixed" => serve::run_mixed(&cfg),
        "serve_flood" => serve::run_flood(&cfg),
        _ => usage(),
    };
    let rep = match result {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    };
    print_report(&workload, &rep);
}

fn print_report(workload: &str, rep: &Report) {
    let attempted: u64 = rep.classes.values().map(|c| c.0).sum();
    let failed: u64 = rep.classes.values().map(|c| c.1).sum();
    eprintln!("{workload}: per op class (attempted / failed)");
    for (class, (a, f)) in &rep.classes {
        eprintln!("  {class:<22} {a:>8} {f:>6}");
    }
    for w in &rep.wrong {
        eprintln!("  WRONG {w}");
    }
    let mut metrics = Vec::new();
    for m in &rep.metrics {
        eprintln!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        metrics.push(format!(
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        rep.wrong_count == 0 && attempted > 0,
        metrics.join(",")
    );
}
