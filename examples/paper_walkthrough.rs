//! Walk through the running example of the paper (Figures 2–5).
//!
//! The example rebuilds the reconstructed Figure-2 graph, prints its
//! repetition vector, evaluates the 1-periodic bound (the situation of
//! Figure 5), runs K-Iter iteration by iteration (Algorithm 1) and finally
//! prints an ASCII Gantt chart of the optimal K-periodic schedule (the
//! situation of Figure 4) next to the as-soon-as-possible reference
//! (Figure 3, obtained by symbolic execution).
//!
//! Run with `cargo run --example paper_walkthrough`.

use kiter::analysis::EventGraphLimits;
use kiter::{
    evaluate_k_periodic, kiter_with_options, paper_example, symbolic_execution_throughput,
    AnalysisOptions, Budget, EventGraphArena, KIterOptions, KPeriodicSchedule,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (graph, tasks) = paper_example();
    println!("=== Figure 2 (reconstructed): {graph}");
    let q = graph.repetition_vector()?;
    println!(
        "repetition vector q = {:?}  (paper: [6, 12, 6, 1])\n",
        q.as_slice()
    );

    // Figure 5: the bi-valued event graph for K = [1,1,1,1].
    let unitary = kiter::PeriodicityVector::unitary(&graph);
    let event_graph = EventGraphArena::build(&graph, &q, &unitary, &EventGraphLimits::default())?;
    println!(
        "=== Figure 5: event graph for K = [1,1,1,1]: {} nodes, {} arcs",
        event_graph.node_count(),
        event_graph.arc_count()
    );
    let periodic = evaluate_k_periodic(&graph, &unitary, &AnalysisOptions::default())?;
    match &periodic.outcome {
        kiter::analysis::EvaluationOutcome::Feasible {
            period,
            critical_tasks,
            ..
        } => {
            println!(
                "1-periodic minimum period Ω = {period}, critical tasks: {:?}\n",
                critical_tasks
                    .iter()
                    .map(|&t| graph.task(t).name())
                    .collect::<Vec<_>>()
            );
        }
        other => println!("1-periodic evaluation: {other:?}\n"),
    }

    // Algorithm 1, iteration by iteration.
    println!("=== K-Iter (Algorithm 1)");
    let options = KIterOptions {
        record_history: true,
        ..KIterOptions::default()
    };
    let result = kiter_with_options(&graph, &options)?;
    for (index, step) in result.history.iter().enumerate() {
        println!(
            "  iteration {}: K = {}, event graph {}x{}, period = {}, critical = {:?}, optimal = {}",
            index + 1,
            step.periodicity,
            step.event_graph_size.0,
            step.event_graph_size.1,
            step.period
                .map_or_else(|| "infeasible".to_string(), |p| p.to_string()),
            step.critical_tasks
                .iter()
                .map(|&t| graph.task(t).name())
                .collect::<Vec<_>>(),
            step.optimal
        );
    }
    println!(
        "  => maximum throughput Th* = {} (period {:?}) after {} iterations\n",
        result.throughput,
        result.period().map(|p| p.to_string()),
        result.iterations
    );

    // Figure 3: the ASAP reference computed by symbolic execution.
    let asap = symbolic_execution_throughput(&graph, &Budget::benchmark())?;
    println!(
        "=== Figure 3 reference: ASAP (symbolic execution) throughput = {}",
        asap.throughput()
            .map_or_else(|| "budget exhausted".to_string(), |t| t.to_string())
    );

    // Figure 4: the optimal K-periodic schedule.
    if let Some(schedule) =
        KPeriodicSchedule::compute(&graph, &result.periodicity, &AnalysisOptions::default())?
    {
        println!(
            "\n=== Figure 4: K-periodic schedule with K = {} (µ_A = {}, Ω = {})",
            schedule.periodicity(),
            schedule.task_period(tasks.a),
            schedule.period()
        );
        println!("{}", schedule.ascii_gantt(&graph, 80));
        assert!(schedule.validate(&graph, 3));
    }
    Ok(())
}
