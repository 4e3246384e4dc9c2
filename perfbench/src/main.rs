//! perfbench: what a user of the `mule-serve` planning daemon pays for a
//! cold request, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan-euclid-2k --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The daemon runs in-process (`mule_serve::start` at `patrolctl serve`
//! defaults) and one client drives it over a single keep-alive
//! connection, waiting for each response (closed loop). Identical work
//! differs by 17–29 % between fresh processes on a shared virtual
//! machine, so the whole process is pinned to one CPU, glibc's malloc
//! thresholds are fixed, and every timing is scaled by
//! `REF_NOMINAL_MS / median reference-kernel time`, the median taken over
//! the kernel samples around it (the kernel runs between requests). Raw
//! figures are printed beside the scaled ones.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` also replays
//! the workload with allocation counting armed, times each layer's
//! public function on the same inputs, and prints the per-layer metrics
//! (a Chrome trace and a self-time table go to `perfbench/out/`).
//! `--steady K` runs the workload in K fresh processes and reports each
//! metric's median, quartiles and spread against its bound.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed request
//! or verification makes the exit code 1.

mod drive;
mod refkernel;
mod stats;
mod steady;
mod sys;
mod traced;
mod verify;
mod workloads;

use mule_serve::JsonValue;
use stats::{percentile, sorted};
use std::process::ExitCode;
use workloads::{Request, Workload};

const USAGE: &str = "usage: perfbench --workload <plan-euclid-2k|plan-road-800|simulate-paper> \
     [--seed N] [--seconds S] [--trace 0|1] [--steady K]";

/// Daemon start-ups timed per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 31;
/// Half-width of the window of reference-kernel samples whose median
/// scales each request (see [`stats::local_factors`]).
const SCALE_WINDOW: usize = 4;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        steady: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--steady" => args.steady = Some(number()?.max(2) as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workloads::find(&args.workload).is_none() {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn metrics_json(metrics: &[Metric]) -> JsonValue {
    JsonValue::object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    JsonValue::object(vec![("value", m.value.into()), ("unit", m.unit.into())]),
                )
            })
            .collect(),
    )
}

/// Sent / succeeded / failed requests of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    pub sent: usize,
    pub failed: usize,
}

impl Phase {
    pub fn print(&self, name: &str) {
        println!(
            "phase {name:<8} sent {:>5}  succeeded {:>5}  failed {:>3}",
            self.sent,
            self.sent - self.failed,
            self.failed
        );
    }
}

/// Everything the untraced pass measured, raw, with the factors that
/// scale it.
pub struct TimedRun {
    /// Median reference-kernel time over the whole run, ms; reported
    /// beside the figures.
    pub ref_median_ms: f64,
    /// Timed-window request latencies, ms, raw.
    pub latency_ms: Vec<f64>,
    /// Per timed request, the factor that scales its latency and CPU time.
    pub scale: Vec<f64>,
    pub cpu_ms: Vec<f64>,
    pub setup_ms: Vec<f64>,
    pub setup_scale: f64,
    pub peak_rss_mb: f64,
    /// Minor page faults per request over the warm-up and timed windows.
    pub faults_per_req: f64,
    pub warmup: Phase,
    pub timed: Phase,
    pub failures: Vec<String>,
    /// What the client saw of each request, warm-up included.
    pub seen: Vec<verify::Seen>,
    pub max_cycle_length_m: f64,
    pub max_interval_s: f64,
}

fn timed_pass(w: &Workload, requests: &[Request]) -> Result<TimedRun, String> {
    for _ in 0..20 {
        refkernel::time_once();
    }
    let mut setup_ref_ms = Vec::with_capacity(SETUP_SAMPLES);
    let mut setup_ms = Vec::with_capacity(SETUP_SAMPLES);
    let mut server = None;
    for _ in 0..SETUP_SAMPLES {
        setup_ref_ms.push(refkernel::time_once());
        if let Some(previous) = server.take() {
            mule_serve::ServerHandle::shutdown(previous);
        }
        let (handle, ms) = drive::boot().map_err(|e| format!("starting the daemon: {e}"))?;
        setup_ms.push(ms);
        server = Some(handle);
    }
    let server = server.expect("SETUP_SAMPLES > 0");

    let rss_scoped = mule_obs::alloc::reset_rss_peak();
    let mut client = drive::Client::new(server.addr());
    let mut seen = Vec::with_capacity(requests.len());
    let faults = sys::minor_faults();
    let samples = drive::closed_loop(&mut client, requests, |s| seen.push(verify::seen(s)));
    let peak_kb = mule_obs::alloc::rss_peak_kb().unwrap_or(0);
    let faults = sys::minor_faults() - faults;
    drop(client);
    server.shutdown();
    if !rss_scoped {
        println!("note: peak RSS could not be reset; it covers the whole process");
    }

    let verdict = verify::verify(requests, &seen);
    let phase = |range: std::ops::Range<usize>| Phase {
        sent: range.len(),
        failed: verdict[range].iter().filter(|v| v.is_err()).count(),
    };
    let warmup = phase(0..w.warmup);
    let timed = phase(w.warmup..requests.len());
    let failures: Vec<String> = verdict
        .iter()
        .enumerate()
        .filter_map(|(i, v)| v.as_ref().err().map(|e| format!("request {i}: {e}")))
        .collect();
    let timed_quality: Vec<f64> = verdict[w.warmup..].iter().flatten().copied().collect();
    let own_quality = if timed_quality.is_empty() {
        0.0
    } else {
        timed_quality.iter().sum::<f64>() / timed_quality.len() as f64
    };
    let cross_quality = verify::cross_quality(&requests[w.warmup..])?;
    let (max_cycle_length_m, max_interval_s) = match w.endpoint {
        workloads::Endpoint::Plan => (own_quality, cross_quality),
        workloads::Endpoint::Simulate => (cross_quality, own_quality),
    };

    let timed_samples = &samples[w.warmup..];
    let ref_ms: Vec<f64> = samples.iter().map(|s| s.ref_ms).collect();
    let nominal_ms = refkernel::REF_NOMINAL_MS;
    Ok(TimedRun {
        ref_median_ms: stats::median(&ref_ms),
        latency_ms: timed_samples
            .iter()
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect(),
        scale: stats::local_factors(&ref_ms, nominal_ms, SCALE_WINDOW)[w.warmup..].to_vec(),
        setup_scale: nominal_ms / stats::median(&setup_ref_ms),
        cpu_ms: timed_samples
            .iter()
            .map(|s| s.cpu_ns as f64 / 1e6)
            .collect(),
        setup_ms,
        peak_rss_mb: peak_kb as f64 / 1024.0,
        faults_per_req: faults as f64 / requests.len() as f64,
        warmup,
        timed,
        failures,
        seen,
        max_cycle_length_m,
        max_interval_s,
    })
}

impl TimedRun {
    /// Timed-window latencies, ms, each scaled by its factor.
    pub fn scaled_latency_ms(&self) -> Vec<f64> {
        self.latency_ms
            .iter()
            .zip(&self.scale)
            .map(|(ms, f)| ms * f)
            .collect()
    }

    /// The end-to-end metrics, either scaled by the reference kernel or
    /// raw (`raw = true`).
    pub fn end_to_end(&self, raw: bool) -> Vec<Metric> {
        let (lat, cpu_ms, setup_scale) = if raw {
            (
                sorted(&self.latency_ms),
                self.cpu_ms.iter().sum::<f64>(),
                1.0,
            )
        } else {
            let cpu = self.cpu_ms.iter().zip(&self.scale).map(|(ms, f)| ms * f);
            (
                sorted(&self.scaled_latency_ms()),
                cpu.sum(),
                self.setup_scale,
            )
        };
        let n = lat.len() as f64;
        let attempted = self.warmup.sent + self.timed.sent;
        let failed = self.warmup.failed + self.timed.failed;
        vec![
            metric("latency_p50_ms", percentile(&lat, 0.5), "ms"),
            metric("latency_p90_ms", percentile(&lat, 0.9), "ms"),
            metric("throughput_rps", n / (lat.iter().sum::<f64>() / 1e3), "1/s"),
            metric(
                "success_rate",
                (attempted - failed) as f64 / attempted as f64,
                "ratio",
            ),
            metric("cpu_ms_per_req", cpu_ms / n, "ms"),
            metric("peak_rss_mb", self.peak_rss_mb, "MiB"),
            metric(
                "setup_s",
                stats::median(&self.setup_ms) * setup_scale / 1e3,
                "s",
            ),
            metric("max_cycle_length_m", self.max_cycle_length_m, "m"),
            metric("max_interval_s", self.max_interval_s, "s"),
        ]
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let w = workloads::find(&args.workload).expect("validated by parse_args");
    if let Some(k) = args.steady {
        return steady::run(w, args.seed, args.seconds, k);
    }
    sys::fix_malloc_thresholds().map_err(|e| format!("setting malloc thresholds: {e}"))?;
    let cpus = sys::allowed_cpus().map_err(|e| format!("reading the CPU mask: {e}"))?;
    let pinned_cpu = *cpus.last().ok_or("no CPU in the affinity mask")?;
    sys::pin_to(&[pinned_cpu]).map_err(|e| format!("pinning to CPU {pinned_cpu}: {e}"))?;

    let requests = w.requests(args.seed, args.seconds);
    println!(
        "perfbench {} seed={} seconds={} requests={} (warm-up {}) git_rev={} nproc={} cpu=\"{}\" pinned_cpu={} ref_nominal_ms={}",
        w.name,
        args.seed,
        args.seconds,
        requests.len(),
        w.warmup,
        sys::git_rev(),
        cpus.len(),
        sys::cpu_model(),
        pinned_cpu,
        refkernel::REF_NOMINAL_MS,
    );
    let run = timed_pass(w, &requests)?;
    run.warmup.print("warm-up");
    run.timed.print("timed");
    println!(
        "reference kernel median {:.4} ms on CPU {} (run-wide scale factor {:.4}; each request is scaled by the median of the {} kernel samples around it); timing samples: {} requests, {} start-ups",
        run.ref_median_ms,
        pinned_cpu,
        refkernel::REF_NOMINAL_MS / run.ref_median_ms,
        2 * SCALE_WINDOW + 1,
        run.latency_ms.len(),
        run.setup_ms.len()
    );
    let e2e = run.end_to_end(false);
    let raw = run.end_to_end(true);
    for (m, r) in e2e.iter().zip(&raw) {
        println!(
            "{:<20} {:>14.4} {:<6} (raw {:.4})",
            m.name, m.value, m.unit, r.value
        );
    }
    for f in run.failures.iter().take(10) {
        println!("FAILED {f}");
    }
    // A machine-readable record of the raw figures and provenance, read by
    // `--steady`.
    println!(
        "raw {}",
        JsonValue::object(vec![
            ("workload", w.name.into()),
            ("seed", args.seed.into()),
            ("git_rev", sys::git_rev().into()),
            ("nproc", cpus.len().into()),
            ("cpu_model", sys::cpu_model().into()),
            ("pinned_cpu", pinned_cpu.into()),
            ("ref_nominal_ms", refkernel::REF_NOMINAL_MS.into()),
            ("ref_median_ms", run.ref_median_ms.into()),
            ("samples", run.latency_ms.len().into()),
            ("metrics", metrics_json(&raw)),
        ])
        .to_json_string()
    );

    let mut attempted = run.warmup.sent + run.timed.sent;
    let mut failed = run.warmup.failed + run.timed.failed;
    let reported = if args.trace {
        let layers = traced::run(w, args.seed, &requests, &run, &cpus, pinned_cpu)?;
        layers.phase.print("traced");
        attempted += layers.phase.sent;
        failed += layers.phase.failed;
        layers.metrics
    } else {
        e2e
    };
    let correct = failed == 0;
    println!(
        "{}",
        JsonValue::object(vec![
            ("correct", correct.into()),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            ("metrics", metrics_json(&reported)),
        ])
        .to_json_string()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let args = parse_args(&argv(
            "--workload plan-road-800 --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(args.workload, "plan-road-800");
        assert_eq!((args.seed, args.seconds, args.trace), (9, 10, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload simulate-paper --trace 2")).is_err());
        assert!(parse_args(&argv("--workload simulate-paper --seed")).is_err());
    }
}
