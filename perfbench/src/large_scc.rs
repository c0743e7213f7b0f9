//! `large_scc`: 10k-task strongly connected CSDF graphs through K-Iter.
//!
//! The graphs are a fixed pool of `RandomGraphConfig::large` graphs; the
//! workload seed shuffles the pool order and renames every graph's tasks
//! ([`rename_tasks`]). Fresh graphs per seed would take from 13 to 26 K-Iter
//! iterations, so runs on different seeds would not be comparable; the
//! pool's answers are pinned below instead.

use std::time::Duration;

use csdf::Throughput;
use csdf_generators::{random_graph, RandomGraphConfig};
use csdf_service::parse_throughput;

use crate::inputs::{rename_tasks, timed_setup, SplitMix};
use crate::kiter_op::{report_untraced, run_traced, timed_loop, GraphInput, Profile};
use crate::report::Report;
use crate::stats::peak_rss_mb;

const TASKS: usize = 10_000;

/// `(generator seed, optimal throughput)`. Each answer was cross-checked by
/// solving K-Iter's final event graph with the parametric MCR solver
/// (`SolverChoice::Parametric`) in place of Howard's.
const POOL: &[(u64, &str)] = &[
    (1, "49/154331"),
    (2, "25/80351"),
    (3, "49/157100"),
    (4, "27/78818"),
];

/// Full passes over the four graphs put p80 inside the slowest graph's
/// samples (the top quarter), with at least ten samples beyond it once a
/// run completes fifty analyses (about sixty in 30 seconds). The latency
/// limit sits at about twice the typical latency: a limit inside the bulk of
/// the distribution would turn small speed changes into large swings.
const PROFILE: Profile = Profile {
    tail_percentile: 80.0,
    slo_ms: 1000.0,
};

fn generate(seed: u64) -> Vec<GraphInput> {
    let mut rng = SplitMix::new(seed);
    let mut order: Vec<usize> = (0..POOL.len()).collect();
    rng.shuffle(&mut order);
    order
        .into_iter()
        .map(|index| {
            let (graph_seed, _) = POOL[index];
            let graph = random_graph(&RandomGraphConfig::large(TASKS), graph_seed)
                .expect("the large configuration generates");
            GraphInput {
                name: format!("large_{graph_seed}"),
                text: rename_tasks(&csdf::text::to_text(&graph), &mut rng),
            }
        })
        .collect()
}

fn reference(name: &str) -> Throughput {
    let (_, answer) = POOL
        .iter()
        .find(|(seed, _)| name == format!("large_{seed}"))
        .expect("every input comes from the pool");
    parse_throughput(answer).expect("pinned answers parse")
}

pub fn run(seed: u64, seconds: Duration, trace: bool) -> Report {
    let mut report = Report::default();
    let inputs = timed_setup(&mut report, || generate(seed));
    let references: Vec<Option<Throughput>> = inputs
        .iter()
        .map(|input| Some(reference(&input.name)))
        .collect();
    if trace {
        run_traced(&mut report, &inputs, &references, seconds);
    } else {
        let (results, passes) = timed_loop(&inputs, seconds);
        let peak = peak_rss_mb();
        report_untraced(&mut report, PROFILE, &results, &passes, &references, peak);
    }
    report
}
