//! Design-space-exploration smoke test: a 32-point uniform-slack capacity
//! sweep of the JPEG2000 and DSP applications through the `explore` /
//! `AnalysisSession` stack, validated point-by-point against 32 independent
//! cold `optimal_throughput` calls.
//!
//! Two properties are checked, mirroring the ISSUE-5 acceptance criteria:
//!
//! * **bit-identity** — every sweep point's `KIterResult` (throughput, K,
//!   iteration count, critical tasks) equals the cold evaluation of the same
//!   design point; any mismatch fails the process;
//! * **less work** — with `--gate <factor>` the total sweep wall-clock must
//!   stay at or below `factor ×` the cold baseline (CI uses `--gate 0.5`,
//!   summed across apps so the big JPEG2000 instance dominates and the tiny
//!   DSP rows cannot flake the gate).
//!
//! Run with `cargo run --release -p kiter-bench --bin explore_smoke --
//! [--json] [--gate 0.5]`. `KITER_EXPLORE_POINTS` overrides the point count
//! (default 32). The sweep runs one worker per available core (at most one
//! per point); each row reports the worker sessions it actually used.

use std::time::Instant;

use csdf::transform::bound_all_buffers;
use csdf::CsdfGraph;
use csdf_explore::{uniform_slack_capacity, ParetoSweep};
use csdf_generators::{apps, dsp};
use kiter_bench::json_escape;
use kperiodic::{optimal_throughput, KIterResult};

struct AppRun {
    cold_ms: f64,
    sweep_ms: f64,
    sessions: usize,
    identical: bool,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut gate: Option<f64> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // JSON is the only output format; accepted for symmetry with the
            // other smoke binaries.
            "--json" => {}
            "--gate" => {
                let value = args.next().expect("--gate takes a factor");
                gate = Some(value.parse().expect("--gate takes a number"));
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let points: usize = std::env::var("KITER_EXPLORE_POINTS")
        .ok()
        .and_then(|value| value.parse().ok())
        .unwrap_or(32);
    let slacks: Vec<u64> = (1..=points as u64).collect();

    let applications: Vec<(&'static str, CsdfGraph)> = vec![
        (
            "JPEG2000",
            apps::industrial_app(&apps::jpeg2000()).expect("JPEG2000 generates"),
        ),
        (
            "samplerate",
            dsp::sample_rate_converter().expect("samplerate generates"),
        ),
    ];

    let mut runs = Vec::new();
    let mut all_identical = true;
    for (name, graph) in &applications {
        let run = run_app(name, graph, &slacks);
        all_identical &= run.identical;
        runs.push(run);
    }

    let cold_total: f64 = runs.iter().map(|run| run.cold_ms).sum();
    let sweep_total: f64 = runs.iter().map(|run| run.sweep_ms).sum();
    let ratio = sweep_total / cold_total.max(f64::MIN_POSITIVE);
    let sessions = runs.iter().map(|run| run.sessions).max().unwrap_or(1);
    println!(
        "{{\"table\":\"explore_smoke\",\"points\":{points},\"sessions\":{sessions},\"cold_ms\":{cold_total:.1},\
         \"sweep_ms\":{sweep_total:.1},\"ratio\":{ratio:.3},\"identical\":{all_identical},\"completed\":true}}",
    );

    if !all_identical {
        eprintln!("explore smoke failed: sweep results differ from cold evaluations");
        std::process::exit(1);
    }
    if let Some(factor) = gate {
        if ratio > factor {
            eprintln!(
                "explore gate failed: sweep took {sweep_total:.1} ms, {ratio:.2}x the \
                 {cold_total:.1} ms cold baseline (limit {factor}x)"
            );
            std::process::exit(1);
        }
        eprintln!(
            "explore gate ok: sweep/cold ratio {ratio:.2} within the {factor} limit \
             ({sessions} sessions)"
        );
    }
}

fn run_app(name: &str, graph: &CsdfGraph, slacks: &[u64]) -> AppRun {
    // Cold baseline: one independent evaluation per point, rebuilding the
    // bounded graph, the event-graph arena and the solver from scratch each
    // time — exactly what `examples/buffer_sizing.rs` did before the session
    // API existed.
    let cold_started = Instant::now();
    let cold_results: Vec<KIterResult> = slacks
        .iter()
        .map(|&slack| {
            let bounded =
                bound_all_buffers(graph, |_, buffer| uniform_slack_capacity(buffer, slack))
                    .expect("bounding succeeds");
            optimal_throughput(&bounded).expect("cold evaluation succeeds")
        })
        .collect();
    let cold_ms = cold_started.elapsed().as_secs_f64() * 1e3;

    // The sweep: same design points through worker-owned analysis sessions.
    let sweep = ParetoSweep::uniform_slack(graph, slacks).expect("sweep builds");
    let sweep_started = Instant::now();
    let outcome = sweep.run().expect("sweep succeeds");
    let sweep_ms = sweep_started.elapsed().as_secs_f64() * 1e3;

    let identical = outcome
        .points
        .iter()
        .zip(&cold_results)
        .all(|(point, cold)| &point.result == cold);
    let frontier = outcome.pareto_frontier().len();
    let stats = outcome.stats;
    println!(
        "{{\"table\":\"explore_smoke\",\"app\":\"{}\",\"tasks\":{},\"buffers\":{},\
         \"points\":{},\"sessions\":{},\"frontier\":{},\
         \"cold_ms\":{:.1},\"sweep_ms\":{:.1},\"construction_ms\":{:.1},\
         \"solve_ms\":{:.1},\"evaluations\":{},\"full_builds\":{},\"patched\":{},\
         \"identical\":{}}}",
        json_escape(name),
        graph.task_count(),
        graph.buffer_count(),
        outcome.points.len(),
        outcome.sessions,
        frontier,
        cold_ms,
        sweep_ms,
        stats.total_construction_time().as_secs_f64() * 1e3,
        stats.solve_time.as_secs_f64() * 1e3,
        stats.evaluations,
        stats.full_builds,
        stats.patched,
        identical,
    );
    AppRun {
        cold_ms,
        sweep_ms,
        sessions: outcome.sessions,
        identical,
    }
}
