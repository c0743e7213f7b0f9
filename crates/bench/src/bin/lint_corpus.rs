//! CI gate: run the static analyzer over every generator category.
//!
//! For each category (the five hand-written DSP applications, the six
//! Table-1 SDF3 stand-in categories, the Table-2 industrial and synthetic
//! app specs, and the three random families) this bin lints a sample of
//! graphs and enforces the analyzer's contract:
//!
//! * no error-severity diagnostic on a graph the solver can evaluate — with
//!   one sanctioned exception: a *deadlock proof* (`L002`/`L003`/`L004`) is
//!   accepted iff [`kperiodic::optimal_throughput`] confirms the deadlock;
//! * every consistent graph gets a bounds bracket, and the bracket contains
//!   the exact K-periodic answer.
//!
//! With `--emit-dir DIR` every linted graph is also written to
//! `DIR/<category>_<index>.csdf` in the text format, so CI can replay the
//! same corpus through the `csdf-lint` CLI binary.
//!
//! Prints one JSON line per category plus a summary line; exits non-zero on
//! any violation.

use std::process::ExitCode;

use csdf::json::Json;
use csdf::CsdfGraph;
use csdf_generators::{apps, dsp, random_graph, sdf3, RandomGraphConfig};
use csdf_lint::{analyze, Severity};
use kperiodic::optimal_throughput;

fn corpus() -> Vec<(String, Vec<CsdfGraph>)> {
    let mut corpus = Vec::new();
    corpus.push((
        "actual_dsp".to_string(),
        dsp::actual_dsp_suite().expect("dsp suite builds"),
    ));
    for category in sdf3::Sdf3Category::all() {
        let graphs = sdf3::generate_category(category, 4, 0xC0FFEE).expect("sdf3 category builds");
        corpus.push((
            format!("sdf3_{}", category.name().to_ascii_lowercase()),
            graphs,
        ));
    }
    let mut specs = apps::industrial_specs();
    specs.extend(apps::synthetic_specs());
    corpus.push((
        "table2_apps".to_string(),
        specs
            .iter()
            .map(|spec| apps::industrial_app(spec).expect("app spec builds"))
            .collect(),
    ));
    for (name, config) in [
        ("random_sdf", RandomGraphConfig::sdf(8)),
        ("random_small_csdf", RandomGraphConfig::small_csdf()),
        ("random_csdf", RandomGraphConfig::default()),
    ] {
        let graphs = (0..8u64)
            .map(|seed| random_graph(&config, seed).expect("random graph builds"))
            .collect();
        corpus.push((name.to_string(), graphs));
    }
    corpus
}

fn main() -> ExitCode {
    let mut arguments = std::env::args().skip(1);
    let mut emit_dir: Option<std::path::PathBuf> = None;
    while let Some(argument) = arguments.next() {
        match argument.as_str() {
            "--emit-dir" => {
                let dir = arguments.next().expect("--emit-dir needs a path");
                emit_dir = Some(std::path::PathBuf::from(dir));
            }
            other => {
                eprintln!("lint_corpus: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dir) = &emit_dir {
        std::fs::create_dir_all(dir).expect("emit dir is creatable");
    }

    let mut failures = Vec::new();
    let mut total = 0usize;
    for (category, graphs) in corpus() {
        let mut diagnostics = 0usize;
        let mut confirmed_deadlocks = 0usize;
        for (index, graph) in graphs.iter().enumerate() {
            total += 1;
            if let Some(dir) = &emit_dir {
                let path = dir.join(format!("{category}_{index}.csdf"));
                std::fs::write(&path, csdf::text::to_text(graph)).expect("emit file writable");
            }
            let report = analyze(graph);
            diagnostics += report.diagnostics.len();
            let exact = match optimal_throughput(graph) {
                Ok(result) => result.throughput,
                Err(error) => {
                    failures.push(format!("{category}/{index}: solver failed: {error}"));
                    continue;
                }
            };
            if report.has_errors() {
                let all_deadlock_proofs = report
                    .diagnostics
                    .iter()
                    .filter(|d| d.code.severity() == Severity::Error)
                    .all(|d| d.code.proves_deadlock());
                if all_deadlock_proofs && exact == csdf::Throughput::Deadlocked {
                    confirmed_deadlocks += 1;
                } else {
                    failures.push(format!(
                        "{category}/{index}: unexpected error diagnostics:\n{}",
                        report.render(None)
                    ));
                    continue;
                }
            }
            match &report.bounds {
                Some(bounds) if bounds.brackets(&exact) => {}
                Some(bounds) => failures.push(format!(
                    "{category}/{index}: exact {exact:?} escapes [{:?}, {:?}]",
                    bounds.lower, bounds.upper
                )),
                None => failures.push(format!("{category}/{index}: no bounds computed")),
            }
        }
        let line = Json::object([
            ("table", "lint_corpus".into()),
            ("category", category.into()),
            ("graphs", graphs.len().into()),
            ("diagnostics", diagnostics.into()),
            ("confirmed_deadlocks", confirmed_deadlocks.into()),
        ]);
        println!("{line}");
    }
    let summary = Json::object([
        ("table", "lint_corpus".into()),
        ("category", "summary".into()),
        ("graphs", total.into()),
        ("passed", failures.is_empty().into()),
    ]);
    println!("{summary}");
    for failure in &failures {
        eprintln!("lint_corpus: {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
