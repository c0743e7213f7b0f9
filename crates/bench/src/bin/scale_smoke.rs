//! Scalability smoke test: one large locality-bounded random CSDF graph
//! through K-Iter, printing one JSON line with the outcome and the
//! pipeline's construction/solve time split. It also times loading the
//! graph: parsing its text form (which must give the generated graph back)
//! and computing its repetition vector, each the fastest of at least
//! [`LOAD_REPEATS`] runs spread over at least [`LOAD_BUDGET`].
//!
//! CI runs this under a hard `timeout`, asserts a non-vacuous (finite)
//! throughput, and — via `--check BENCH_TABLE1.json` — fails the build if
//! the MCR-solve split, the whole K-Iter run, the parse or the repetition
//! vector regresses more than [`CHECK_FACTOR`]× over the committed baseline
//! (the `"table":"scale_smoke"` line of that file with the same task count),
//! mirroring the JPEG2000 sized-buffer guard: any regression of the
//! event-graph construction path or the MCR solver at scale fails the build
//! instead of silently slowing it down. The total matters on its own: the
//! jump to `K = q` moves time from the solve into the build and the patch. The K-Iter
//! trajectory is deterministic per graph, so `--check` also fails when the
//! iteration count, the Howard round count or the lane census differs from
//! the baseline row's: a change to any of them (a solver lane that changed
//! any decision, say) has to show up in review as a changed baseline.
//!
//! Memory is reported and gated too: `event_graph_bytes` is the heap the
//! final event graph holds ([`kperiodic::EventGraphArena::heap_bytes`], by
//! capacity), also printed per node and per arc, and `peak_rss_mb` the
//! process's peak resident set (`VmHWM`). The event graph's bytes are
//! deterministic per graph like the iteration count, so `--check` fails
//! when they differ from the baseline row's. The peak resident set is only
//! reported: it depends on the host's allocator, C library and huge-page
//! setting, so a committed figure from one machine is no gate for another.
//!
//! Run with `cargo run -p kiter-bench --bin scale_smoke --release -- [--json]
//! [--check BENCH_TABLE1.json]`. `KITER_SMOKE_TASKS` overrides the task count
//! (default 10000, 100k+ is supported and CI-exercised).

use std::time::{Duration, Instant};

use csdf::Throughput;
use csdf_generators::{random_graph, RandomGraphConfig};
use kiter_bench::json_escape;
use kperiodic::{kiter_with_pipeline, AnalysisOptions, EvaluationPipeline, KIterOptions};

/// A solve split or a total slower than `baseline × CHECK_FACTOR` fails
/// `--check`.
/// Generous on purpose: CI machines are noisy; a real regression (losing the
/// integer kernel, re-deriving the event graph per iteration) is >4×.
const CHECK_FACTOR: f64 = 3.0;

/// Parse and repetition-vector times are the fastest of at least this many
/// runs: a run of a few milliseconds is too noisy to gate on its own, and a
/// loaded host slows some runs but speeds up none, so the minimum moves
/// least.
const LOAD_REPEATS: usize = 7;

/// ... and of as many more as fit in this time, so that a layer of a few
/// milliseconds is also timed in a slice no other process took.
const LOAD_BUDGET: Duration = Duration::from_millis(200);

fn main() {
    let mut args = std::env::args().skip(1);
    let mut check_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // JSON is the only output format; the flag is accepted for
            // symmetry with the table binaries.
            "--json" => {}
            "--check" => check_path = args.next(),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let tasks: usize = std::env::var("KITER_SMOKE_TASKS")
        .ok()
        .and_then(|value| value.parse().ok())
        .unwrap_or(10_000);
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let graph = random_graph(&RandomGraphConfig::large(tasks), 0xD0C5)
        .expect("large random graph generates");

    let text = csdf::text::to_text(&graph);
    let (parsed, parse_ms) = fastest_timed(|| csdf::text::parse(&text));
    if parsed.as_ref() != Ok(&graph) {
        eprintln!("smoke failed: the text form does not parse back to the graph: {parsed:?}");
        std::process::exit(1);
    }
    let (repetition, repetition_ms) = fastest_timed(|| graph.repetition_vector());
    if let Err(err) = repetition {
        eprintln!("smoke failed: no repetition vector: {err}");
        std::process::exit(1);
    }

    let started = Instant::now();
    let mut pipeline = EvaluationPipeline::new(AnalysisOptions::default());
    let result = kiter_with_pipeline(&graph, &KIterOptions::default(), &mut pipeline);
    let total_ms = started.elapsed().as_secs_f64() * 1e3;

    let result = match result {
        Ok(result) => result,
        Err(err) => {
            println!(
                "{{\"tasks\":{},\"nproc\":{nproc},\"error\":\"{}\",\"total_ms\":{total_ms:.1},\
                 \"completed\":false}}",
                graph.task_count(),
                json_escape(&err.to_string()),
            );
            std::process::exit(1);
        }
    };
    let stats = pipeline.stats();
    let (nodes, arcs, heap_bytes) = pipeline.arena().map_or((0, 0, 0), |arena| {
        (arena.node_count(), arena.arc_count(), arena.heap_bytes())
    });
    let solve_ms = stats.solve_time.as_secs_f64() * 1e3;
    let lanes = format!(
        "{{\"i64\":{},\"i128\":{},\"scalar\":{},\"parametric\":{}}}",
        stats.lanes.int64, stats.lanes.int128, stats.lanes.scalar, stats.lanes.parametric,
    );
    let peak_rss_mb = peak_rss_mb();
    println!(
        "{{\"tasks\":{},\"buffers\":{},\"nproc\":{nproc},\"throughput\":\"{}\",\
         \"iterations\":{},\"event_graph\":[{nodes},{arcs}],\"parse_ms\":{parse_ms:.2},\
         \"repetition_ms\":{repetition_ms:.2},\"total_ms\":{total_ms:.1},\
         \"build_ms\":{:.1},\"patch_ms\":{:.1},\"solve_ms\":{solve_ms:.1},\
         \"last_solve_ms\":{:.2},\"howard_rounds\":{},\"lanes\":{lanes},\"patched\":{},\
         \"rebuilt_buffers\":{},\"reused_buffers\":{},\"peak_rss_mb\":{peak_rss_mb:.1},\
         \"event_graph_bytes\":{heap_bytes},\"bytes_per_node\":{:.1},\
         \"bytes_per_arc\":{:.1},\"completed\":true}}",
        graph.task_count(),
        graph.buffer_count(),
        json_escape(&result.throughput.to_string()),
        result.iterations,
        stats.build_time.as_secs_f64() * 1e3,
        stats.patch_time.as_secs_f64() * 1e3,
        stats.last_solve_time.as_secs_f64() * 1e3,
        stats.howard_rounds,
        stats.patched,
        stats.rebuilt_buffers,
        stats.reused_buffers,
        heap_bytes as f64 / nodes.max(1) as f64,
        heap_bytes as f64 / arcs.max(1) as f64,
    );
    // Non-vacuous outcome: the generated graph is strongly connected and
    // serialised, so its throughput must be finite.
    if !matches!(result.throughput, Throughput::Finite(_)) {
        eprintln!("smoke failed: expected a finite throughput");
        std::process::exit(1);
    }

    if let Some(path) = check_path {
        check_against_baseline(
            &path,
            tasks,
            &[
                ("parse", "parse_ms", parse_ms),
                ("repetition vector", "repetition_ms", repetition_ms),
                ("solve split", "solve_ms", solve_ms),
                ("total", "total_ms", total_ms),
            ],
            Measured {
                iterations: result.iterations,
                howard_rounds: stats.howard_rounds,
                lanes: &lanes,
                event_graph_bytes: heap_bytes,
            },
        );
    }
}

/// The process's peak resident set in MiB (`VmHWM` of
/// `/proc/self/status`), or 0 where that file does not exist.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

/// What `--check` compares exactly: iterations, Howard rounds, the lane
/// census as printed and the event graph's heap bytes.
#[derive(Clone, Copy)]
struct Measured<'a> {
    iterations: usize,
    howard_rounds: u64,
    lanes: &'a str,
    event_graph_bytes: usize,
}

/// Runs `load` at least [`LOAD_REPEATS`] times and until [`LOAD_BUDGET`]
/// has passed; returns the last result and the fastest time in
/// milliseconds.
fn fastest_timed<T>(mut load: impl FnMut() -> T) -> (T, f64) {
    let began = Instant::now();
    let mut fastest = f64::INFINITY;
    let mut result = None;
    let mut runs = 0;
    while runs < LOAD_REPEATS || began.elapsed() < LOAD_BUDGET {
        let started = Instant::now();
        let loaded = load();
        fastest = fastest.min(started.elapsed().as_secs_f64() * 1e3);
        // The previous result drops outside the timed section.
        result = Some(loaded);
        runs += 1;
    }
    (result.expect("at least one run"), fastest)
}

/// Compares the measured times — `(what, baseline key, milliseconds)` —
/// against the committed baseline (the `"table":"scale_smoke"` JSON line
/// whose `"tasks"` matches), failing the process on a regression beyond
/// [`CHECK_FACTOR`], or on any change of the iteration count, the Howard
/// round count, the lane census or the event graph's heap bytes.
fn check_against_baseline(
    path: &str,
    tasks: usize,
    timings: &[(&str, &str, f64)],
    run: Measured<'_>,
) {
    let Measured {
        iterations,
        howard_rounds,
        lanes,
        event_graph_bytes,
    } = run;
    let contents = match std::fs::read_to_string(path) {
        Ok(contents) => contents,
        Err(err) => {
            eprintln!("check failed: cannot read {path}: {err}");
            std::process::exit(1);
        }
    };
    let baseline = baseline_line(&contents, tasks);
    let baseline_times: Option<Vec<f64>> = timings
        .iter()
        .map(|&(_, key, _)| baseline.and_then(|line| extract_number(line, key)))
        .collect();
    let (
        Some(baseline_times),
        Some(baseline_iterations),
        Some(baseline_rounds),
        Some(baseline_lanes),
        Some(baseline_bytes),
    ) = (
        baseline_times,
        baseline.and_then(|line| extract_number(line, "iterations")),
        baseline.and_then(|line| extract_number(line, "howard_rounds")),
        baseline.and_then(|line| extract_object(line, "lanes")),
        baseline.and_then(|line| extract_number(line, "event_graph_bytes")),
    )
    else {
        eprintln!(
            "check failed: no \"table\":\"scale_smoke\" baseline for {tasks} tasks in {path}"
        );
        std::process::exit(1);
    };
    if iterations as f64 != baseline_iterations {
        eprintln!(
            "perf-smoke gate failed: {iterations} K-Iter iterations, the committed baseline \
             has {baseline_iterations} at {tasks} tasks (the trajectory is deterministic: \
             regenerate the baseline if the change is intended)"
        );
        std::process::exit(1);
    }
    if howard_rounds as f64 != baseline_rounds {
        eprintln!(
            "perf-smoke gate failed: {howard_rounds} Howard rounds, the committed baseline \
             has {baseline_rounds} at {tasks} tasks (the count is deterministic: a solver \
             change that alters it changed a decision; regenerate the baseline only if that \
             is intended)"
        );
        std::process::exit(1);
    }
    if lanes != baseline_lanes {
        eprintln!(
            "perf-smoke gate failed: lane census {lanes}, the committed baseline has \
             {baseline_lanes} at {tasks} tasks (the census is deterministic: a change moved \
             a component to another solver lane; regenerate the baseline only if that is \
             intended)"
        );
        std::process::exit(1);
    }
    if event_graph_bytes as f64 != baseline_bytes {
        eprintln!(
            "perf-smoke gate failed: the event graph holds {event_graph_bytes} heap bytes, \
             the committed baseline has {baseline_bytes} at {tasks} tasks (the figure is \
             deterministic: a change moved the event graph's layout or capacities; \
             regenerate the baseline only if that is intended)"
        );
        std::process::exit(1);
    }
    for (&(what, _, measured), baseline) in timings.iter().zip(baseline_times) {
        let limit = baseline * CHECK_FACTOR;
        if measured > limit {
            eprintln!(
                "perf-smoke gate failed: {what} {measured:.2} ms exceeds {CHECK_FACTOR}x \
                 the committed baseline ({baseline:.2} ms -> limit {limit:.2} ms) at \
                 {tasks} tasks"
            );
            std::process::exit(1);
        }
        eprintln!(
            "perf-smoke gate ok: {what} {measured:.2} ms within {CHECK_FACTOR}x of the \
             {baseline:.2} ms baseline"
        );
    }
}

/// Minimal JSONL scan (the stand-in environment has no serde): finds the
/// `scale_smoke` line for `tasks`.
fn baseline_line(contents: &str, tasks: usize) -> Option<&str> {
    contents
        .lines()
        .filter(|line| line.contains("\"table\":\"scale_smoke\""))
        .find(|line| line.contains(&format!("\"tasks\":{tasks},")))
}

/// The `{...}` value of `key` (a flat object) in `line`, braces included.
fn extract_object<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\":{{");
    let start = line.find(&marker)? + marker.len() - 1;
    let end = start + line[start..].find('}')?;
    Some(&line[start..=end])
}

fn extract_number(line: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
