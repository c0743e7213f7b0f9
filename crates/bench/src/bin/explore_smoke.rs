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
//!   DSP rows cannot flake the gate). Cold baseline and sweep are timed
//!   [`REPEATS`] times and the gate takes the median ratio: single runs on a
//!   shared 2-core host spread from 0.39 to 0.60 around a median of 0.49.
//!
//! Run with `cargo run --release -p kiter-bench --bin explore_smoke --
//! [--json] [--gate 0.5]`. `KITER_EXPLORE_POINTS` overrides the point count
//! (default 32). The sweep runs one worker per available core (at most one
//! per point); each row reports the worker sessions it actually used.

use std::time::Instant;

use csdf::json::Json;
use csdf::transform::bound_all_buffers;
use csdf::CsdfGraph;
use csdf_explore::{uniform_slack_capacity, ParetoSweep};
use csdf_generators::{apps, dsp};
use kperiodic::{optimal_throughput, KIterResult, PipelineStats};

/// Timed repetitions of every app's cold baseline and sweep.
const REPEATS: usize = 7;

struct AppRun {
    cold_ms: f64,
    sweep_ms: f64,
    stats: PipelineStats,
    sessions: usize,
    frontier: usize,
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

    // runs[repeat][app]
    let runs: Vec<Vec<AppRun>> = (0..REPEATS)
        .map(|_| {
            applications
                .iter()
                .map(|(_, graph)| run_app(graph, &slacks))
                .collect()
        })
        .collect();
    let all_identical = runs.iter().flatten().all(|run| run.identical);
    let sessions = runs
        .iter()
        .flatten()
        .map(|run| run.sessions)
        .max()
        .unwrap_or(1);

    for (index, (name, graph)) in applications.iter().enumerate() {
        let median_ms = |value: fn(&AppRun) -> f64| {
            Json::rounded(median(runs.iter().map(|apps| value(&apps[index]))), 1)
        };
        // Counters are deterministic per run; times are medians.
        let first = &runs[0][index];
        let line = Json::object([
            ("table", "explore_smoke".into()),
            ("app", (*name).into()),
            ("tasks", graph.task_count().into()),
            ("buffers", graph.buffer_count().into()),
            ("points", points.into()),
            ("repeats", REPEATS.into()),
            ("sessions", first.sessions.into()),
            ("frontier", first.frontier.into()),
            ("cold_ms", median_ms(|run| run.cold_ms)),
            ("sweep_ms", median_ms(|run| run.sweep_ms)),
            (
                "construction_ms",
                median_ms(|run| run.stats.total_construction_time().as_secs_f64() * 1e3),
            ),
            (
                "solve_ms",
                median_ms(|run| run.stats.solve_time.as_secs_f64() * 1e3),
            ),
            ("evaluations", first.stats.evaluations.into()),
            ("full_builds", first.stats.full_builds.into()),
            ("patched", first.stats.patched.into()),
            (
                "identical",
                runs.iter().all(|apps| apps[index].identical).into(),
            ),
        ]);
        println!("{line}");
    }

    let total = |apps: &[AppRun], value: fn(&AppRun) -> f64| apps.iter().map(value).sum::<f64>();
    let ratios: Vec<f64> = runs
        .iter()
        .map(|apps| {
            total(apps, |run| run.sweep_ms) / total(apps, |run| run.cold_ms).max(f64::MIN_POSITIVE)
        })
        .collect();
    let ratio = median(ratios.iter().copied());
    let ratio_min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let ratio_max = ratios.iter().copied().fold(0.0, f64::max);
    let cold_total = median(runs.iter().map(|apps| total(apps, |run| run.cold_ms)));
    let sweep_total = median(runs.iter().map(|apps| total(apps, |run| run.sweep_ms)));
    let summary = Json::object([
        ("table", "explore_smoke".into()),
        ("points", points.into()),
        ("repeats", REPEATS.into()),
        ("sessions", sessions.into()),
        ("cold_ms", Json::rounded(cold_total, 1)),
        ("sweep_ms", Json::rounded(sweep_total, 1)),
        ("ratio", Json::rounded(ratio, 3)),
        ("ratio_min", Json::rounded(ratio_min, 3)),
        ("ratio_max", Json::rounded(ratio_max, 3)),
        ("identical", all_identical.into()),
        ("completed", true.into()),
    ]);
    println!("{summary}");

    if !all_identical {
        eprintln!("explore smoke failed: sweep results differ from cold evaluations");
        std::process::exit(1);
    }
    if let Some(factor) = gate {
        if ratio > factor {
            eprintln!(
                "explore gate failed: median sweep/cold ratio {ratio:.2} over {REPEATS} runs \
                 (limit {factor})"
            );
            std::process::exit(1);
        }
        eprintln!(
            "explore gate ok: median sweep/cold ratio {ratio:.2} over {REPEATS} runs within \
             the {factor} limit ({sessions} sessions)"
        );
    }
}

/// The median of `values` (the upper one of an even count).
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.collect();
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn run_app(graph: &CsdfGraph, slacks: &[u64]) -> AppRun {
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
    AppRun {
        cold_ms,
        sweep_ms,
        stats: outcome.stats,
        sessions: outcome.sessions,
        frontier: outcome.pareto_frontier().len(),
        identical,
    }
}
