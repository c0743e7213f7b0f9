//! Cross-layer properties of the static analyzer: on every random generator
//! graph the pre-solve bounds must bracket the exact K-periodic answer, a
//! static deadlock proof must match the solver's verdict, and the whole
//! report must be bit-identical across threads.

use kiter::generators::{random_graph, RandomGraphConfig};
use kiter::lint::{analyze, LintReport};
use kiter::{optimal_throughput, Throughput};

/// The three generator families swept by the property tests. Every family
/// serialises its tasks with one-token self-loops (the SDF3 benchmark
/// convention), which is the precondition under which the lint upper bounds
/// are sound for the solver's event-graph model.
fn families() -> Vec<(&'static str, RandomGraphConfig)> {
    vec![
        ("sdf", RandomGraphConfig::sdf(6)),
        ("small_csdf", RandomGraphConfig::small_csdf()),
        ("default_csdf", RandomGraphConfig::default()),
    ]
}

#[test]
fn bounds_bracket_the_exact_throughput_on_500_random_graphs() {
    let mut checked = 0usize;
    for (family, config) in families() {
        for seed in 0..200u64 {
            let graph = random_graph(&config, seed).expect("generator emits valid graphs");
            let report = analyze(&graph);
            let bounds = report
                .bounds
                .unwrap_or_else(|| panic!("{family}/{seed}: consistent graph must get bounds"));
            let exact = optimal_throughput(&graph)
                .unwrap_or_else(|e| panic!("{family}/{seed}: solver failed: {e}"))
                .throughput;
            assert!(
                bounds.brackets(&exact),
                "{family}/{seed}: exact {exact:?} escapes the bracket [{:?}, {:?}]",
                bounds.lower,
                bounds.upper,
            );
            if report.certain_deadlock() {
                assert_eq!(
                    exact,
                    Throughput::Deadlocked,
                    "{family}/{seed}: a static deadlock proof must match the solver",
                );
            }
            checked += 1;
        }
    }
    assert!(checked >= 500, "swept only {checked} graphs");
}

#[test]
fn every_error_on_a_generated_graph_is_a_confirmed_deadlock_proof() {
    // The generator only emits consistent graphs, but its feedback markings
    // occasionally deadlock (e.g. the `sdf` family at seed 20). So error
    // diagnostics are allowed — yet each must be a deadlock *proof* the
    // solver confirms; anything else (L000/L001) would be a false positive.
    for (family, config) in families() {
        for seed in 0..50u64 {
            let graph = random_graph(&config, seed).unwrap();
            let report = analyze(&graph);
            let errors: Vec<_> = report
                .diagnostics
                .iter()
                .filter(|d| d.code.severity() == kiter::lint::Severity::Error)
                .collect();
            if errors.is_empty() {
                continue;
            }
            assert!(
                errors.iter().all(|d| d.code.proves_deadlock()),
                "{family}/{seed}: non-deadlock error on a generated graph:\n{}",
                report.render(None),
            );
            let exact = optimal_throughput(&graph).unwrap().throughput;
            assert_eq!(
                exact,
                Throughput::Deadlocked,
                "{family}/{seed}: lint proved a deadlock the solver does not see",
            );
        }
    }
}

#[test]
fn reports_are_bit_identical_across_threads_on_random_graphs() {
    let config = RandomGraphConfig::default();
    let graphs: Vec<_> = (0..16u64)
        .map(|seed| random_graph(&config, seed).unwrap())
        .collect();
    let baseline: Vec<LintReport> = graphs.iter().map(analyze).collect();
    let runs: Vec<Vec<LintReport>> = std::thread::scope(|scope| {
        (0..4)
            .map(|_| scope.spawn(|| graphs.iter().map(analyze).collect::<Vec<_>>()))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().unwrap())
            .collect()
    });
    for run in runs {
        assert_eq!(run, baseline);
        for (report, expected) in run.iter().zip(&baseline) {
            assert_eq!(report.render(Some("g")), expected.render(Some("g")));
        }
    }
}

/// `graph` with one rate of buffer `buffer` raised by one.
fn with_one_rate_perturbed(
    graph: &kiter::model::CsdfGraph,
    buffer: usize,
    phase: usize,
) -> kiter::model::CsdfGraph {
    let mut builder = kiter::model::CsdfGraphBuilder::new();
    for (_, task) in graph.tasks() {
        builder.add_task(task.name(), task.durations().to_vec());
    }
    for (id, spec) in graph.buffers() {
        let mut production = spec.production().to_vec();
        if id.index() == buffer {
            let phase = phase % production.len();
            production[phase] += 1;
        }
        builder.add_buffer(
            spec.source(),
            spec.target(),
            production,
            spec.consumption().to_vec(),
            spec.initial_tokens(),
        );
    }
    builder
        .build()
        .expect("a raised rate keeps the graph valid")
}

/// The `L001` certificate starts at the buffer `repetition_vector` reports:
/// the lint walk and the repetition vector's walk visit each task's
/// buffers in the same order, so they meet the same first contradiction.
#[test]
fn inconsistency_certificates_start_at_the_repetition_vectors_buffer() {
    let mut checked = 0usize;
    for (family, config) in families() {
        for seed in 0..80u64 {
            let graph = random_graph(&config, seed).expect("generator emits valid graphs");
            for perturbation in 0..3 {
                let buffer = (seed as usize * 7 + perturbation * 13) % graph.buffer_count();
                let perturbed = with_one_rate_perturbed(&graph, buffer, perturbation);
                let Err(kiter::model::CsdfError::Inconsistent { buffer: expected }) =
                    perturbed.repetition_vector()
                else {
                    continue;
                };
                let report = analyze(&perturbed);
                let certificate = report
                    .diagnostics
                    .iter()
                    .find(|d| d.code.as_str() == "L001")
                    .unwrap_or_else(|| panic!("{family}/{seed}/{buffer}: no L001 reported"));
                assert_eq!(
                    certificate.buffers.first(),
                    Some(&expected),
                    "{family}/{seed}/{buffer}: the certificate starts elsewhere"
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked >= 300,
        "only {checked} perturbed graphs were inconsistent"
    );
}
