//! `dtb-e2ebench`: the end-to-end and per-layer benchmark of the three
//! parts of the system — the trace-driven simulator, the real heap and
//! the evaluation service.
//!
//! ```text
//! dtb-e2ebench --workload <sim-shards|heap-dtbfm|svc-small> --seed N
//!              --seconds S --trace <0|1> [--repeat K]
//! ```
//!
//! One run measures one workload for at least `--seconds` seconds,
//! checks its outputs, and prints as its last stdout line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! traced run also writes its spans as JSON lines under `.work/` in the
//! benchmark's directory. A run whose outputs fail a check prints the
//! mismatches on stderr and exits with code 1.
//!
//! `--repeat K` runs the benchmark K times as child processes, with seeds
//! `N..N+K`, and prints each metric's median and quartiles.

mod heap_dtbfm;
mod report;
mod sim_shards;
mod span;
mod svc_small;

use report::{host_probe_ms, peak_rss_mb, quantile, Outcome, EXACT};
use span::Spans;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const WORKLOADS: [&str; 3] = ["sim-shards", "heap-dtbfm", "svc-small"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                args.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

/// Scratch files and span dumps go under the benchmark's own directory.
fn work_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dtb-e2ebench: {e}");
            eprintln!(
                "usage: dtb-e2ebench --workload <{}> --seed N --seconds S --trace <0|1> [--repeat K]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(k) = args.repeat {
        return repeat(&args, k);
    }

    let probe_ms = host_probe_ms();
    let work = work_root().join(format!("{}-{}", args.workload, std::process::id()));
    let mut spans = Spans::new(args.trace);
    let result = match args.workload.as_str() {
        "sim-shards" => sim_shards::run(args.seed, args.seconds, &mut spans, &work),
        "heap-dtbfm" => heap_dtbfm::run(args.seed, args.seconds, &mut spans),
        _ => svc_small::run(args.seed, args.seconds, &mut spans, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut outcome: Outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dtb-e2ebench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    outcome.end_to_end.insert("peak_rss_mb", peak_rss_mb());
    outcome.per_layer.insert("host.probe_ms", probe_ms);

    let exact: Vec<String> = EXACT
        .iter()
        .filter_map(|name| Some(format!("{name}={}", outcome.per_layer.get(name)?)))
        .collect();
    eprintln!("{}: exact counts: {}", args.workload, exact.join(" "));
    if args.trace {
        let path = work_root().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match spans.write(&path) {
            Ok(()) => eprintln!("{}: spans written to {}", args.workload, path.display()),
            Err(e) => eprintln!("{}: writing spans failed: {e}", args.workload),
        }
        // Traced end-to-end figures, for the tracing overhead.
        eprintln!(
            "{}: traced run {}",
            args.workload,
            outcome.result_line(false)
        );
    }
    for m in &outcome.mismatches {
        eprintln!("{}: MISMATCH: {m}", args.workload);
    }
    println!("{}", outcome.result_line(args.trace));
    if outcome.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the benchmark `k` times as child processes (each repetition of
/// `heap-dtbfm` leaks its heap, so runs do not share a process) and
/// prints every metric's median and quartiles.
fn repeat(args: &Args, k: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("dtb-e2ebench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut ok = true;
    for i in 0..k as u64 {
        let seed = args.seed + i;
        let output = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let stdout = match output {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            Ok(o) => {
                eprintln!("dtb-e2ebench: seed {seed} exited with {}", o.status);
                ok = false;
                continue;
            }
            Err(e) => {
                eprintln!("dtb-e2ebench: seed {seed} did not start: {e}");
                ok = false;
                continue;
            }
        };
        let line = stdout.lines().last().unwrap_or_default();
        println!("seed {seed}: {line}");
        for (name, value, unit) in parse_metrics(line) {
            match values.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, _, v)) => v.push(value),
                None => values.push((name, unit, vec![value])),
            }
        }
    }
    println!(
        "{:<34} {:>14} {:>14} {:>14} {:>8}  unit",
        "metric", "median", "q1", "q3", "iqr/med"
    );
    for (name, unit, v) in &values {
        let (q1, med, q3) = (quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75));
        let spread = if med != 0.0 { (q3 - q1) / med } else { 0.0 };
        println!("{name:<34} {med:>14.4} {q1:>14.4} {q3:>14.4} {spread:>8.4}  {unit}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `(name, value, unit)` of every metric in a result line written by
/// [`Outcome::result_line`].
fn parse_metrics(line: &str) -> Vec<(String, f64, String)> {
    let Some(body) = line.split_once("\"metrics\": {").map(|(_, b)| b) else {
        return Vec::new();
    };
    let mut found = Vec::new();
    for entry in body.split("}, ") {
        let field = |key: &str| {
            let rest = &entry[entry.find(key)? + key.len()..];
            Some(rest[..rest.find([',', '"', '}']).unwrap_or(rest.len())].trim())
        };
        let name = entry.split('"').nth(1);
        let value = field("\"value\": ").and_then(|v| v.parse::<f64>().ok());
        let unit = field("\"unit\": \"");
        if let (Some(name), Some(value), Some(unit)) = (name, value, unit) {
            found.push((name.to_string(), value, unit.to_string()));
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_mode_reads_result_lines() {
        let mut o = Outcome::default();
        o.end_to_end.insert("setup_s", 0.25);
        o.end_to_end.insert("latency_p90_ms", 12.5);
        let found = parse_metrics(&o.result_line(false));
        assert_eq!(found.len(), report::END_TO_END.len());
        assert!(found.contains(&("setup_s".to_string(), 0.25, "s".to_string())));
        assert!(found.contains(&("latency_p90_ms".to_string(), 12.5, "ms".to_string())));
    }
}
