//! Scalability sweep: K-Iter and the 1-periodic method as the task count of
//! random SDF graphs grows (supporting figure; the paper's `LgTransient`
//! category probes the same axis), extended to 10k+-task locality-bounded
//! random CSDF graphs with a construction-vs-patch split of the event-graph
//! work:
//!
//! * `event_graph/full/<n>` — a from-scratch [`EventGraphArena::build`] at a
//!   periodicity vector K-Iter reached after one update;
//! * `event_graph/patch/<n>` — one in-place [`EventGraphArena::apply_update`]
//!   between that vector and the unitary one (the arena ping-pongs between
//!   the two, so every measured iteration patches the same dirty set the
//!   K-Iter loop would).
//!
//! The two paths produce bit-identical ratio graphs (asserted here and
//! property-tested in `tests/properties.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csdf::TaskId;
use csdf_baselines::Budget;
use csdf_generators::{random_graph, RandomGraphConfig};
use kiter_bench::{run_method, Method};
use kperiodic::{EventGraphArena, EventGraphLimits, PeriodicityVector};

fn bench_scalability(c: &mut Criterion) {
    let budget = Budget::default();
    let mut group = c.benchmark_group("scalability");
    group.sample_size(10);
    for tasks in [10usize, 20, 40, 80, 160] {
        let config = RandomGraphConfig {
            tasks,
            extra_edges: tasks / 2,
            feedback_edges: 2,
            repetition_choices: vec![1, 2, 3, 4],
            max_phases: 2,
            duration_range: (1, 20),
            marking_factor: 2,
            serialize: true,
            locality: None,
        };
        let graph = random_graph(&config, 0xCAFE).expect("generation succeeds");
        for method in [Method::KIter, Method::Periodic] {
            group.bench_with_input(
                BenchmarkId::new(method.label(), tasks),
                &graph,
                |b, graph| b.iter(|| run_method(graph, method, &budget)),
            );
        }
    }
    // Locality-bounded large graphs: only the exact methods that stay
    // tractable at this scale.
    for tasks in [1_000usize, 10_000] {
        let graph =
            random_graph(&RandomGraphConfig::large(tasks), 0xD0C5).expect("generation succeeds");
        for method in [Method::KIter, Method::Periodic] {
            group.bench_with_input(
                BenchmarkId::new(method.label(), tasks),
                &graph,
                |b, graph| b.iter(|| run_method(graph, method, &budget)),
            );
        }
    }
    group.finish();
}

/// Construction-vs-patch split: how much of a K-Iter iteration's event-graph
/// work the arena saves relative to a from-scratch rebuild.
fn bench_event_graph_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_graph");
    group.sample_size(10);
    let limits = EventGraphLimits::default();
    for tasks in [1_000usize, 10_000] {
        let graph =
            random_graph(&RandomGraphConfig::large(tasks), 0xD0C5).expect("generation succeeds");
        let q = graph.repetition_vector().expect("consistent");
        let base = PeriodicityVector::unitary(&graph);
        // A K-Iter-shaped update: raise the periodicity of a few scattered
        // tasks (a critical circuit touches a handful of tasks, not all).
        let mut target = base.clone();
        for index in 0..8 {
            let task = TaskId::new((index * tasks / 8 + 3) % tasks);
            target.raise(task, 4).expect("valid K");
        }
        let arena = EventGraphArena::build(&graph, &q, &base, &limits).expect("base arena builds");

        // Sanity: the patched arena is bit-identical to the scratch build.
        let mut patched = arena.clone();
        patched
            .apply_update(&graph, &target, None)
            .expect("patch succeeds");
        let scratch =
            EventGraphArena::build(&graph, &q, &target, &limits).expect("scratch build succeeds");
        assert_eq!(patched.ratio_graph(), scratch.ratio_graph());

        group.bench_with_input(BenchmarkId::new("full", tasks), &graph, |b, graph| {
            b.iter(|| EventGraphArena::build(graph, &q, &target, &limits).expect("builds"));
        });
        group.bench_with_input(BenchmarkId::new("patch", tasks), &graph, |b, graph| {
            let mut arena = arena.clone();
            let mut at_target = false;
            b.iter(|| {
                at_target = !at_target;
                let next = if at_target { &target } else { &base };
                arena
                    .apply_update(graph, next, None)
                    .expect("patch succeeds");
                arena.arc_count()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scalability, bench_event_graph_updates);
criterion_main!(benches);
