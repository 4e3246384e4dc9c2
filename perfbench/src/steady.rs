//! `--steady K`: the tool for setting and checking the bounds. It runs a
//! workload K times, each in a fresh process (speed shifts show between
//! processes, not within one) with seeds `seed .. seed + K`, and prints
//! each end-to-end metric's median, quartiles and spread
//! `(q3 − q1) / median` beside the bound in `BENCHMARK.json`, for the
//! scaled and the raw figures.

use crate::stats::{median, quartiles};
use crate::workloads::Workload;
use mule_serve::json::parse;
use mule_serve::JsonValue;
use std::process::{Command, ExitCode, Stdio};

/// `(name, value)` pairs of a result's `metrics` object, in order.
fn values(metrics: Option<&JsonValue>) -> Vec<(String, f64)> {
    match metrics {
        Some(JsonValue::Object(fields)) => fields
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => Vec::new(),
    }
}

/// The `end_to_end` bounds of `BENCHMARK.json` in the working directory.
fn bounds() -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    match parse(&text).ok().as_ref().and_then(|d| d.get("end_to_end")) {
        Some(JsonValue::Array(items)) => items
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("bound")?.as_f64()?,
                ))
            })
            .collect(),
        _ => Vec::new(),
    }
}

pub fn run(w: &Workload, seed: u64, seconds: u64, k: usize) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut scaled: Vec<Vec<(String, f64)>> = Vec::new();
    let mut raw: Vec<Vec<(String, f64)>> = Vec::new();
    let mut all_ok = true;
    for i in 0..k as u64 {
        let out = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &(seed + i).to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running the benchmark: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().and_then(|l| parse(l).ok());
        let raw_line = stdout
            .lines()
            .find_map(|l| l.strip_prefix("raw "))
            .and_then(|l| parse(l).ok());
        let (Some(last), Some(raw_line)) = (last, raw_line) else {
            println!("seed {}: no result (exit {})", seed + i, out.status);
            all_ok = false;
            continue;
        };
        all_ok &= out.status.success();
        let run_scaled = values(last.get("metrics"));
        let run_raw = values(raw_line.get("metrics"));
        println!(
            "seed {}: exit {}  ref_median_ms {:.4}  pinned_cpu {}  {} {:.4} (raw {:.4})",
            seed + i,
            out.status.code().unwrap_or(-1),
            raw_line
                .get("ref_median_ms")
                .and_then(|v| v.as_f64())
                .unwrap_or(f64::NAN),
            raw_line
                .get("pinned_cpu")
                .and_then(|v| v.as_u64())
                .unwrap_or(0),
            run_scaled.first().map_or("-", |(n, _)| n.as_str()),
            run_scaled.first().map_or(f64::NAN, |(_, v)| *v),
            run_raw.first().map_or(f64::NAN, |(_, v)| *v),
        );
        scaled.push(run_scaled);
        raw.push(run_raw);
    }
    if scaled.len() < 2 {
        return Err("fewer than two runs produced a result".to_string());
    }
    let bounds = bounds();
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>8} {:>7}  {:>12} {:>8}",
        "metric", "median", "q1", "q3", "spread", "bound", "raw median", "raw sprd"
    );
    for (j, (name, _)) in scaled[0].iter().enumerate() {
        let column = |runs: &[Vec<(String, f64)>]| -> Vec<f64> {
            runs.iter()
                .filter_map(|r| r.get(j).map(|(_, v)| *v))
                .collect()
        };
        let spread = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            let m = median(v);
            (m, q1, q3, if m == 0.0 { 0.0 } else { (q3 - q1) / m })
        };
        let (m, q1, q3, s) = spread(&column(&scaled));
        let (rm, _, _, rs) = spread(&column(&raw));
        let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
        let verdict = match bound {
            None => "",
            Some(b) if s <= b / 3.0 => "steady",
            Some(b) if s <= b => "within bound",
            Some(_) if name == "setup_s" => "wide (setup_s is exempt)",
            Some(_) => {
                all_ok = false;
                "TOO WIDE"
            }
        };
        println!(
            "{name:<20} {m:>12.4} {q1:>12.4} {q3:>12.4} {:>7.2}% {:>6}  {rm:>12.4} {:>7.2}%  {verdict}",
            s * 100.0,
            bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            rs * 100.0,
        );
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
