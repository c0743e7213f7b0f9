//! Micro-benchmark of the maximum-cycle-ratio solvers on event graphs of
//! growing size (the inner kernel of every K-Iter iteration), head-to-head
//! across [`mcr::SolverChoice`]s, plus the buffer-sized JPEG2000 reproducer
//! whose infeasible event graphs made the parametric method run for minutes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csdf_generators::apps::{industrial_app, jpeg2000};
use csdf_generators::{buffer_sized, random_graph, RandomGraphConfig};
use kperiodic::{
    kiter_with_options, EventGraphArena, EventGraphLimits, KIterOptions, PeriodicityVector,
};
use mcr::{RatioGraph, Solver, SolverChoice};

fn solver_choices() -> [(&'static str, SolverChoice); 3] {
    [
        ("parametric", SolverChoice::Parametric),
        ("howard", SolverChoice::Howard),
        ("auto", SolverChoice::Auto),
    ]
}

fn bench_mcr(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcr_solvers");
    group.sample_size(10);
    for tasks in [10usize, 40, 160] {
        let config = RandomGraphConfig {
            tasks,
            extra_edges: tasks,
            feedback_edges: 3,
            repetition_choices: vec![1, 2, 3, 4],
            max_phases: 2,
            duration_range: (1, 50),
            marking_factor: 2,
            serialize: true,
            locality: None,
        };
        let graph = random_graph(&config, 7).expect("generation succeeds");
        let q = graph.repetition_vector().expect("consistent");
        let k = PeriodicityVector::unitary(&graph);
        let event_graph = EventGraphArena::build(&graph, &q, &k, &EventGraphLimits::default())
            .expect("event graph");
        for (label, choice) in solver_choices() {
            group.bench_with_input(
                BenchmarkId::new(format!("{label}_ratio"), tasks),
                event_graph.ratio_graph(),
                |b, ratio_graph| {
                    b.iter(|| Solver::new(choice).solve(ratio_graph).expect("solve"));
                },
            );
        }
    }
    group.finish();
}

/// The pathological instance from the ROADMAP: the buffer-sized JPEG2000
/// application (sum(q) = 18129, capacity factor 2). Its early K-Iter
/// iterations produce *infeasible* event graphs on which the parametric
/// solver needs Θ(n) exact-rational Bellman–Ford rounds to expose the
/// non-positive-time circuit, while Howard's policy iteration finds it in a
/// few policy evaluations.
fn jpeg2000_sized_event_graphs() -> Vec<(&'static str, RatioGraph)> {
    let graph = industrial_app(&jpeg2000()).expect("generator");
    let sized = buffer_sized(&graph, 2).expect("bounded");
    let q = sized.repetition_vector().expect("consistent");

    let unitary = PeriodicityVector::unitary(&sized);
    let first = EventGraphArena::build(&sized, &q, &unitary, &EventGraphLimits::default())
        .expect("unitary event graph");

    // Let K-Iter itself produce the second periodicity vector (via its
    // recorded history), so the "grown" stage always benchmarks exactly the
    // event graph the real algorithm solves on its second iteration.
    let result = kiter_with_options(
        &sized,
        &KIterOptions {
            record_history: true,
            ..KIterOptions::default()
        },
    )
    .expect("kiter");
    let grown = result
        .history
        .get(1)
        .map(|iteration| iteration.periodicity.clone())
        .expect("sized JPEG2000 needs more than one K-Iter iteration");
    let second = EventGraphArena::build(&sized, &q, &grown, &EventGraphLimits::default())
        .expect("grown event graph");

    vec![
        ("unitary", first.ratio_graph().clone()),
        ("grown", second.ratio_graph().clone()),
    ]
}

fn bench_jpeg2000_sized(c: &mut Criterion) {
    let mut group = c.benchmark_group("jpeg2000_sized");
    group.sample_size(10);
    for (stage, ratio_graph) in jpeg2000_sized_event_graphs() {
        for (label, choice) in solver_choices() {
            if stage == "grown" && choice == SolverChoice::Parametric {
                // ~14 s per solve: benchmarking it would dominate the whole
                // suite. The unitary stage already captures the comparison.
                continue;
            }
            group.bench_with_input(
                BenchmarkId::new(label, stage),
                &ratio_graph,
                |b, ratio_graph| {
                    b.iter(|| Solver::new(choice).solve(ratio_graph).expect("solve"));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_mcr, bench_jpeg2000_sized);
criterion_main!(benches);
