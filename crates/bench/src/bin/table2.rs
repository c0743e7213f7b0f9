//! Regenerates the paper's **Table 2**: optimality and computation time of
//! the periodic method, K-Iter and symbolic execution on industrial CSDF
//! applications (with and without buffer-size constraints) and on synthetic
//! graphs.
//!
//! Run with `cargo run -p kiter-bench --bin table2 --release`.
//! `KITER_TABLE2_FULL=1` additionally evaluates the largest instances
//! (`H264Encoder`, graph4, graph5), which take several minutes.
//!
//! Options: `--json` emits one JSON object per row (the committed
//! `BENCH_TABLE2.json` reference file is produced this way), `--only <name>`
//! filters rows by name substring, and `--section <no-buffer|sized|synthetic>`
//! runs a single section — CI uses
//! `--section sized --only JPEG2000 --json` under a hard timeout to guard the
//! buffer-sized pathology that Howard's policy iteration fixed.

use csdf::json::Json;
use csdf::CsdfGraph;
use csdf_baselines::Budget;
use csdf_generators::apps::{industrial_app, industrial_specs, synthetic_specs, AppSpec};
use csdf_generators::buffer_sized;
use kiter_bench::{run_method, Method, TableArgs};

fn main() {
    let budget = Budget::default();
    let full = std::env::var("KITER_TABLE2_FULL").is_ok();
    let args = TableArgs::parse();

    if !args.json {
        println!("Table 2: periodic [4] vs K-Iter vs symbolic execution [16]");
        println!("(synthetic reproductions of the IB+AG5CSDF applications; see DESIGN.md §5)\n");
        header();
    }

    if args.wants_section("no-buffer") {
        if !args.json {
            println!(
                "-- no buffer size --------------------------------------------------------------"
            );
        }
        for spec in industrial_specs() {
            if skip_large(&spec, full) || !args.wants(spec.name) {
                continue;
            }
            match industrial_app(&spec) {
                Ok(graph) => row(&args, "no-buffer", spec.name, &graph, &budget),
                Err(err) => generation_failed(&args, "no-buffer", spec.name, &err),
            }
        }
    }

    if args.wants_section("sized") {
        if !args.json {
            println!(
                "-- fixed buffer size -----------------------------------------------------------"
            );
        }
        for spec in industrial_specs() {
            if skip_large(&spec, full) || !args.wants(spec.name) {
                continue;
            }
            match industrial_app(&spec).and_then(|g| buffer_sized(&g, 2)) {
                Ok(graph) => row(&args, "sized", spec.name, &graph, &budget),
                Err(err) => generation_failed(&args, "sized", spec.name, &err),
            }
        }
    }

    if args.wants_section("synthetic") {
        if !args.json {
            println!(
                "-- synthetic graphs ------------------------------------------------------------"
            );
        }
        for spec in synthetic_specs() {
            if skip_large(&spec, full) || !args.wants(spec.name) {
                continue;
            }
            match industrial_app(&spec) {
                Ok(graph) => row(&args, "synthetic", spec.name, &graph, &budget),
                Err(err) => generation_failed(&args, "synthetic", spec.name, &err),
            }
        }
    }

    if !args.json {
        if !full {
            println!(
                "\n(the largest instances were skipped; set KITER_TABLE2_FULL=1 to include them)"
            );
        }
        println!("'N/S' = the method has no solution, '> budget' = resource budget exhausted.");
    }
}

/// Reports a generator failure without corrupting the output stream: a
/// structured object in `--json` mode, the plain line otherwise.
fn generation_failed(args: &TableArgs, section: &str, name: &str, err: &impl std::fmt::Display) {
    if args.json {
        let line = Json::object([
            ("table", "table2".into()),
            ("section", section.into()),
            ("name", name.into()),
            ("error", err.to_string().into()),
        ]);
        println!("{line}");
    } else {
        println!("{name:<14} generation failed: {err}");
    }
}

fn skip_large(spec: &AppSpec, full: bool) -> bool {
    !full && (spec.tasks > 700 || spec.name == "graph2" || spec.name == "graph3")
}

fn header() {
    println!(
        "{:<14} {:>6} {:>8} {:>14} | {:>6} {:>12} | {:>6} {:>12} | {:>6} {:>12}",
        "Application",
        "tasks",
        "buffers",
        "sum(q)",
        "[4]%",
        "[4] time",
        "KIt%",
        "K-Iter time",
        "[16]%",
        "[16] time"
    );
}

fn row(args: &TableArgs, section: &str, name: &str, graph: &CsdfGraph, budget: &Budget) {
    let sum = graph
        .repetition_vector()
        .map_or_else(|_| "?".to_string(), |q| q.sum().to_string());

    let kiter = run_method(graph, Method::KIter, budget);
    let periodic = run_method(graph, Method::Periodic, budget);
    let symbolic = run_method(graph, Method::SymbolicExecution, budget);
    let reference = kiter.throughput;

    if args.json {
        let line = Json::object([
            ("table", "table2".into()),
            ("section", section.into()),
            ("name", name.into()),
            ("tasks", graph.task_count().into()),
            ("buffers", graph.buffer_count().into()),
            ("sum_q", sum.as_str().into()),
            ("periodic", periodic.json()),
            ("kiter", kiter.json()),
            ("symbolic", symbolic.json()),
        ]);
        println!("{line}");
        return;
    }

    println!(
        "{:<14} {:>6} {:>8} {:>14} | {:>6} {:>12} | {:>6} {:>12} | {:>6} {:>12}",
        name,
        graph.task_count(),
        graph.buffer_count(),
        sum,
        periodic.optimality_cell(reference),
        periodic.time_cell(),
        kiter.optimality_cell(reference),
        kiter.time_cell(),
        symbolic.optimality_cell(reference),
        symbolic.time_cell(),
    );
}
