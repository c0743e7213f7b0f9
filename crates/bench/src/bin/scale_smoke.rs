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

use csdf::json::Json;
use csdf::Throughput;
use csdf_generators::{random_graph, RandomGraphConfig};
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
            let line = Json::object([
                ("tasks", graph.task_count().into()),
                ("nproc", nproc.into()),
                ("error", err.to_string().into()),
                ("total_ms", Json::rounded(total_ms, 1)),
                ("completed", false.into()),
            ]);
            println!("{line}");
            std::process::exit(1);
        }
    };
    let stats = pipeline.stats();
    let (nodes, arcs, heap_bytes) = pipeline.arena().map_or((0, 0, 0), |arena| {
        (arena.node_count(), arena.arc_count(), arena.heap_bytes())
    });
    let solve_ms = stats.solve_time.as_secs_f64() * 1e3;
    let ms = |time: Duration, decimals| Json::rounded(time.as_secs_f64() * 1e3, decimals);
    let per = |count: usize| Json::rounded(heap_bytes as f64 / count.max(1) as f64, 1);
    let lanes = Json::object([
        ("i64", stats.lanes.int64.into()),
        ("i128", stats.lanes.int128.into()),
        ("scalar", stats.lanes.scalar.into()),
        ("parametric", stats.lanes.parametric.into()),
    ]);
    let row = Json::object([
        ("tasks", graph.task_count().into()),
        ("buffers", graph.buffer_count().into()),
        ("nproc", nproc.into()),
        ("throughput", result.throughput.to_string().into()),
        ("iterations", result.iterations.into()),
        ("event_graph", Json::Array(vec![nodes.into(), arcs.into()])),
        ("parse_ms", Json::rounded(parse_ms, 2)),
        ("repetition_ms", Json::rounded(repetition_ms, 2)),
        ("total_ms", Json::rounded(total_ms, 1)),
        ("build_ms", ms(stats.build_time, 1)),
        ("patch_ms", ms(stats.patch_time, 1)),
        ("solve_ms", Json::rounded(solve_ms, 1)),
        ("last_solve_ms", ms(stats.last_solve_time, 2)),
        ("howard_rounds", stats.howard_rounds.into()),
        ("lanes", lanes),
        ("patched", stats.patched.into()),
        ("rebuilt_buffers", stats.rebuilt_buffers.into()),
        ("reused_buffers", stats.reused_buffers.into()),
        ("peak_rss_mb", Json::rounded(peak_rss_mb(), 1)),
        ("event_graph_bytes", heap_bytes.into()),
        ("bytes_per_node", per(nodes)),
        ("bytes_per_arc", per(arcs)),
        ("completed", true.into()),
    ]);
    println!("{row}");
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
            &row,
            &[
                ("parse", "parse_ms", parse_ms),
                ("repetition vector", "repetition_ms", repetition_ms),
                ("solve split", "solve_ms", solve_ms),
                ("total", "total_ms", total_ms),
            ],
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

/// The fields `--check` requires equal to the baseline row's, each with
/// why it is deterministic.
const EXACT_FIELDS: [(&str, &str); 4] = [
    (
        "iterations",
        "the K-Iter trajectory is deterministic: regenerate the baseline if the change is \
         intended",
    ),
    (
        "howard_rounds",
        "the count is deterministic: a solver change that alters it changed a decision; \
         regenerate the baseline only if that is intended",
    ),
    (
        "lanes",
        "the census is deterministic: a change moved a component to another solver lane; \
         regenerate the baseline only if that is intended",
    ),
    (
        "event_graph_bytes",
        "the figure is deterministic: a change moved the event graph's layout or \
         capacities; regenerate the baseline only if that is intended",
    ),
];

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
/// against the committed baseline row ([`baseline_row`]), failing the
/// process on a regression beyond [`CHECK_FACTOR`], or when any of
/// [`EXACT_FIELDS`] of `row` differs from the baseline's: the iteration
/// count and the Howard round count, the lane census and the event graph's
/// heap bytes.
fn check_against_baseline(path: &str, tasks: usize, row: &Json, timings: &[(&str, &str, f64)]) {
    let contents = match std::fs::read_to_string(path) {
        Ok(contents) => contents,
        Err(err) => {
            eprintln!("check failed: cannot read {path}: {err}");
            std::process::exit(1);
        }
    };
    let Some(baseline) = baseline_row(&contents, tasks) else {
        eprintln!(
            "check failed: no \"table\":\"scale_smoke\" baseline for {tasks} tasks in {path}"
        );
        std::process::exit(1);
    };
    for (key, why) in EXACT_FIELDS {
        let (measured, committed) = (row.get(key), baseline.get(key));
        if measured != committed {
            let show = |value: Option<&Json>| value.map_or("nothing".to_string(), Json::to_string);
            eprintln!(
                "perf-smoke gate failed: {key} {}, the committed baseline has {} at {tasks} \
                 tasks ({why})",
                show(measured),
                show(committed),
            );
            std::process::exit(1);
        }
    }
    for &(what, key, measured) in timings {
        let Some(baseline) = baseline.get(key).and_then(Json::as_f64) else {
            eprintln!("check failed: the {tasks}-task baseline in {path} has no {key}");
            std::process::exit(1);
        };
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

/// The `"table":"scale_smoke"` row for `tasks` in a JSON Lines baseline
/// file. Lines that are not JSON are skipped; the committed files have
/// none (see the tests).
fn baseline_row(contents: &str, tasks: usize) -> Option<Json> {
    contents
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .find(|row| {
            row.get("table").and_then(Json::as_str) == Some("scale_smoke")
                && row.get("tasks").and_then(Json::as_u64) == Some(tasks as u64)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINES: [&str; 2] = [
        include_str!("../../../../BENCH_TABLE1.json"),
        include_str!("../../../../BENCH_TABLE2.json"),
    ];

    #[test]
    fn every_committed_baseline_line_parses() {
        for contents in BASELINES {
            for line in contents.lines() {
                assert!(
                    Json::parse(line).is_ok(),
                    "unparsable baseline line: {line}"
                );
            }
        }
    }

    #[test]
    fn check_finds_the_committed_scale_smoke_rows() {
        for tasks in [1_000, 10_000, 100_000] {
            let row = baseline_row(BASELINES[0], tasks).expect("a committed row");
            assert_eq!(row.get("tasks").and_then(Json::as_u64), Some(tasks as u64));
            let lanes = row.get("lanes").expect("a lane census");
            for lane in ["i64", "i128", "scalar", "parametric"] {
                assert!(lanes.get(lane).and_then(Json::as_u64).is_some(), "{lane}");
            }
            for (key, _) in EXACT_FIELDS {
                assert!(row.get(key).is_some(), "{key} at {tasks} tasks");
            }
        }
        assert!(baseline_row(BASELINES[0], 1).is_none());
        assert!(baseline_row(BASELINES[1], 10_000).is_none());
    }
}
