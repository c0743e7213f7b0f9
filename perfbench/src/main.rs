//! The repository benchmark. See `perfbench/README.md`.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! generates the workload's inputs from the seed, measures for the given
//! time, checks every answer against an independent reference, writes a
//! run record under `.bench_runs/`, and prints one JSON result line last.
//! It exits non-zero when any answer is wrong or missing.

mod app_corpus;
mod inputs;
mod kiter_op;
mod large_scc;
mod report;
mod service_mix;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use report::{Report, END_TO_END, LAYERS, PER_LAYER};

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for character in text.chars() {
        match character {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            control if (control as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", control as u32);
            }
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", entries.join(","))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes the run record (and the traced run's spans) under `.bench_runs/`.
fn write_record(
    args: &Args,
    report: &Report,
    metrics: &str,
    nproc: usize,
) -> std::io::Result<String> {
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |since| since.as_millis());
    let stem = format!(
        ".bench_runs/{}-seed{}-trace{}-{stamp}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::create_dir_all(".bench_runs")?;
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let mut record = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"cpu_model\":{},\"rustc\":{},\"git_commit\":{},\"build_profile\":{},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_string(&cpu_model()),
        json_string(&env("PERFBENCH_RUSTC")),
        json_string(&env("PERFBENCH_COMMIT")),
        json_string("release, lto=thin, codegen-units=1"),
        report.failed == 0,
        report.attempted,
        report.failed,
    );
    for (key, value) in report.notes() {
        let _ = write!(record, ",{}:{value}", json_string(key));
    }
    record.push_str("}\n");
    std::fs::write(format!("{stem}.json"), record)?;
    if !report.spans_jsonl().is_empty() {
        std::fs::write(format!("{stem}.spans.jsonl"), report.spans_jsonl())?;
    }
    Ok(stem)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let seconds = Duration::from_secs(args.seconds);
    let mut report = match args.workload.as_str() {
        "large_scc" => large_scc::run(args.seed, seconds, args.trace),
        "app_corpus" => app_corpus::run(args.seed, seconds, args.trace),
        "service_mix" => service_mix::run(args.seed, seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if report.attempted == 0 {
        report.fail("no operation completed".to_string());
    }
    let listed = if args.trace { PER_LAYER } else { END_TO_END };
    let unlisted = report.unlisted(&[END_TO_END, PER_LAYER].concat());
    assert!(
        unlisted.is_empty(),
        "metrics missing from the lists: {unlisted:?}"
    );
    let metrics = report.metrics_of(listed);
    let metrics = metrics_json(&metrics);
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    for failure in report.failures() {
        eprintln!("perfbench: wrong answer: {failure}");
    }
    if args.trace {
        let self_times: Vec<String> = LAYERS
            .iter()
            .map(|layer| format!("{layer}={:.4}", report.value(&format!("self_ms.{layer}"))))
            .collect();
        eprintln!(
            "perfbench: self time per operation (ms): {}",
            self_times.join(" ")
        );
    }
    match write_record(&args, &report, &metrics, nproc) {
        Ok(stem) => eprintln!("perfbench: run record {stem}.json (nproc {nproc})"),
        Err(error) => eprintln!("perfbench: cannot write the run record: {error}"),
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    );
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
