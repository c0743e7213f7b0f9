//! Design-space-exploration benchmark: an 8-point uniform-slack capacity
//! sweep evaluated as 8 independent cold `optimal_throughput` calls versus
//! one `explore::ParetoSweep` over `AnalysisSession`s (arena, caches and
//! solver scratch reused across the points; results bit-identical by
//! construction, asserted here once per graph). `session_x1` runs the sweep
//! on one fresh session, `session` on one worker per available core.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csdf::transform::bound_all_buffers;
use csdf::CsdfGraph;
use csdf_explore::{uniform_slack_capacity, ParetoSweep};
use csdf_generators::{apps, dsp};
use kperiodic::{optimal_throughput, AnalysisSession, KIterOptions};

const SLACKS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

fn cold_sweep(graph: &CsdfGraph) -> usize {
    SLACKS
        .iter()
        .map(|&slack| {
            let bounded =
                bound_all_buffers(graph, |_, buffer| uniform_slack_capacity(buffer, slack))
                    .expect("bounding succeeds");
            optimal_throughput(&bounded)
                .expect("evaluation succeeds")
                .iterations
        })
        .sum()
}

fn bench_explore(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore");
    group.sample_size(10);
    let applications: Vec<(&str, CsdfGraph)> = vec![
        ("modem", dsp::modem().expect("modem generates")),
        (
            "JPEG2000",
            apps::industrial_app(&apps::jpeg2000()).expect("JPEG2000 generates"),
        ),
    ];
    for (name, graph) in &applications {
        let sweep = ParetoSweep::uniform_slack(graph, &SLACKS).expect("sweep builds");
        // Pin bit-identity once per graph before timing anything.
        let outcome = sweep.run().expect("sweep runs");
        let cold: Vec<_> = SLACKS
            .iter()
            .map(|&slack| {
                let bounded =
                    bound_all_buffers(graph, |_, buffer| uniform_slack_capacity(buffer, slack))
                        .expect("bounding succeeds");
                optimal_throughput(&bounded).expect("evaluation succeeds")
            })
            .collect();
        assert!(outcome
            .points
            .iter()
            .zip(&cold)
            .all(|(point, cold)| &point.result == cold));

        group.bench_with_input(BenchmarkId::new("cold", name), graph, |b, graph| {
            b.iter(|| cold_sweep(graph));
        });
        group.bench_with_input(BenchmarkId::new("session_x1", name), &sweep, |b, sweep| {
            b.iter(|| {
                let graph = sweep.bounded().graph().clone();
                let mut session =
                    AnalysisSession::new(graph, KIterOptions::default()).expect("session");
                sweep
                    .run_on_session(&mut session)
                    .expect("sweep runs")
                    .points
                    .len()
            });
        });
        group.bench_with_input(BenchmarkId::new("session", name), &sweep, |b, sweep| {
            b.iter(|| sweep.run().expect("sweep runs").points.len());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_explore);
criterion_main!(benches);
