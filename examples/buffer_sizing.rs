//! Throughput under buffer-size constraints (the bottom half of Table 2),
//! driven as a design-space exploration.
//!
//! Buffer capacities are modelled as reverse buffers; this example sweeps
//! the capacity slack of a DSP pipeline through `explore::ParetoSweep` —
//! every point re-sizes its worker's `AnalysisSession` graph in place
//! instead of rebuilding anything, one worker per core — prints the
//! throughput/storage trade-off with its Pareto frontier, and then asks
//! `min_storage_for_throughput` for the cheapest design that still reaches
//! the unbounded optimum.
//!
//! Run with `cargo run --example buffer_sizing --release`.

use kiter::explore::{min_storage_for_throughput, ParetoSweep};
use kiter::generators::dsp;
use kiter::optimal_throughput;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = dsp::sample_rate_converter()?;
    println!(
        "application: {} ({} tasks, {} buffers)",
        graph.name(),
        graph.task_count(),
        graph.buffer_count()
    );

    let unbounded = optimal_throughput(&graph)?;
    println!(
        "unbounded buffers: Th* = {} (K = {})\n",
        unbounded.throughput, unbounded.periodicity
    );

    let slacks = [1u64, 2, 3, 4, 8];
    let sweep = ParetoSweep::uniform_slack(&graph, &slacks)?;
    let outcome = sweep.run()?;
    let frontier: Vec<u64> = outcome
        .pareto_frontier()
        .iter()
        .map(|point| point.label)
        .collect();

    println!(
        "{:>6} | {:>9} | {:>14} | {:>10} | {:>8}",
        "slack", "storage", "K-Iter Th*", "iterations", "frontier"
    );
    println!(
        "{:->6}-+-{:->9}-+-{:->14}-+-{:->10}-+-{:->8}",
        "", "", "", "", ""
    );
    for point in &outcome.points {
        println!(
            "{:>6} | {:>9} | {:>14} | {:>10} | {:>8}",
            point.label,
            point.total_storage,
            point.throughput().to_string(),
            point.result.iterations,
            if frontier.contains(&point.label) {
                "*"
            } else {
                ""
            }
        );
    }

    let stats = outcome.stats;
    println!(
        "\nsweep work: {} evaluations, {} arena build(s) + {} in-place patches, \
         construction {:.2} ms / solve {:.2} ms",
        stats.evaluations,
        stats.full_builds,
        stats.patched,
        stats.total_construction_time().as_secs_f64() * 1e3,
        stats.solve_time.as_secs_f64() * 1e3,
    );

    if let Some(minimal) = min_storage_for_throughput(&graph, unbounded.throughput, 64)? {
        println!(
            "cheapest design at the unbounded optimum: slack {} ({} tokens of storage, \
             found in {} probes)",
            minimal.slack, minimal.total_storage, minimal.evaluations
        );
    }
    println!("\nA slack of k bounds every buffer to k·(i_b + o_b) tokens.");
    Ok(())
}
