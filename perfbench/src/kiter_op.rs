//! The operation both K-Iter workloads time — graph text in, certified
//! throughput out — and the traced run's layer breakdown of it.

use std::time::{Duration, Instant};

use csdf::{CsdfGraph, Throughput};
use kperiodic::{
    kiter_with_pipeline, AnalysisOptions, ArenaUpdate, AssembleMode, EvaluationPipeline,
    EventGraphArena, KIterOptions, KIterResult,
};
use mcr::{CycleRatioOutcome, SccDecomposition, Solver, SolverChoice};

use crate::report::{LayerSamples, Report};
use crate::stats::{median, percentile, ratio, samples_beyond};
use crate::trace::Tracer;

/// One input graph as the program under test receives it: text.
#[derive(Debug)]
pub struct GraphInput {
    pub name: String,
    pub text: String,
}

/// The answer of one timed operation.
#[derive(Debug)]
pub struct OpResult {
    pub input: usize,
    pub ms: f64,
    pub answer: Result<Throughput, String>,
}

/// Parses `text` and runs K-Iter to a certified throughput with the
/// library defaults (`threads: 1`).
pub fn analyze(text: &str) -> Result<Throughput, String> {
    let graph = csdf::text::parse(text).map_err(|error| error.to_string())?;
    let mut pipeline = EvaluationPipeline::new(AnalysisOptions::default());
    kiter_with_pipeline(&graph, &KIterOptions::default(), &mut pipeline)
        .map(|result| result.throughput)
        .map_err(|error| error.to_string())
}

/// Runs [`analyze`] over every input, pass after pass, until a pass ends
/// after `budget`; returns the results and each pass's wall time. Whole
/// passes give every input the same number of samples.
pub fn timed_loop(inputs: &[GraphInput], budget: Duration) -> (Vec<OpResult>, Vec<Duration>) {
    let started = Instant::now();
    let mut results = Vec::new();
    let mut passes = Vec::new();
    while started.elapsed() < budget {
        let pass_started = Instant::now();
        for (input, graph) in inputs.iter().enumerate() {
            let op_started = Instant::now();
            let answer = analyze(&graph.text);
            results.push(OpResult {
                input,
                ms: op_started.elapsed().as_secs_f64() * 1e3,
                answer: std::hint::black_box(answer),
            });
        }
        passes.push(pass_started.elapsed());
    }
    (results, passes)
}

/// Settings that differ between the two K-Iter workloads.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// The fixed percentile reported as `tail_ms`.
    pub tail_percentile: f64,
    /// The latency limit behind `slo_ok_ratio`.
    pub slo_ms: f64,
}

/// Checks every result against its input's reference answer and reports
/// the end-to-end metrics of an untraced run.
pub fn report_untraced(
    report: &mut Report,
    profile: Profile,
    results: &[OpResult],
    passes: &[Duration],
    references: &[Option<Throughput>],
    peak_rss_mb: f64,
) {
    let correct = check(report, results, references);
    let latencies: Vec<f64> = results.iter().map(|result| result.ms).collect();
    let within = results
        .iter()
        .zip(&correct)
        .filter(|(result, &ok)| ok && result.ms <= profile.slo_ms)
        .count();
    // The median over inputs of each input's median: a few inputs with
    // distinct costs would otherwise put the median at a cluster edge.
    let mut per_input: Vec<Vec<f64>> = vec![Vec::new(); references.len()];
    for result in results {
        per_input[result.input].push(result.ms);
    }
    let input_medians: Vec<f64> = per_input
        .iter()
        .filter(|samples| !samples.is_empty())
        .map(|samples| median(samples))
        .collect();
    report.metric("p50_ms", median(&input_medians));
    report.metric("tail_ms", percentile(&latencies, profile.tail_percentile));
    // Certified analyses per second over the median pass, so a stall in
    // one pass does not set it.
    let pass_seconds: Vec<f64> = passes.iter().map(Duration::as_secs_f64).collect();
    report.metric("ops_per_s", references.len() as f64 / median(&pass_seconds));
    report.metric("slo_ok_ratio", ratio(within as f64, results.len() as f64));
    report.metric("peak_rss_mb", peak_rss_mb);
    report.note("samples", results.len().to_string());
    report.note("tail_percentile", profile.tail_percentile.to_string());
    report.note(
        "tail_samples_beyond",
        samples_beyond(&latencies, profile.tail_percentile).to_string(),
    );
    report.note("slo_limit_ms", profile.slo_ms.to_string());
}

/// Counts every result whose answer differs from its reference as failed;
/// returns per-result correctness.
pub fn check(
    report: &mut Report,
    results: &[OpResult],
    references: &[Option<Throughput>],
) -> Vec<bool> {
    results
        .iter()
        .map(|result| {
            report.attempted += 1;
            let Some(expected) = references[result.input] else {
                report.fail(format!("input {}: no reference answer", result.input));
                return false;
            };
            match &result.answer {
                Ok(answer) if *answer == expected => true,
                Ok(answer) => {
                    report.fail(format!(
                        "input {}: K-Iter gave {answer}, reference {expected}",
                        result.input
                    ));
                    false
                }
                Err(error) => {
                    report.fail(format!("input {}: K-Iter failed: {error}", result.input));
                    false
                }
            }
        })
        .collect()
}

/// The traced run of a K-Iter workload: an untraced pass and a traced pass
/// over the same operations (their wall-time ratio is the tracing
/// overhead), then a replay of recorded K-Iter trajectories through the
/// arena and the solver for the layers the K-Iter loop hides.
pub fn run_traced(
    report: &mut Report,
    inputs: &[GraphInput],
    references: &[Option<Throughput>],
    seconds: Duration,
) {
    let third = seconds / 3;
    let (untraced, passes) = timed_loop(inputs, third);
    let untraced_wall: Duration = passes.iter().sum();
    check(report, &untraced, references);

    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut traced = Vec::with_capacity(untraced.len());
    for (op, previous) in untraced.iter().enumerate() {
        let op = op as u64;
        let root = tracer.begin("op", op);
        let text = &inputs[previous.input].text;
        let answer = traced_op(&mut tracer, op, text);
        tracer.end(root);
        traced.push(OpResult {
            input: previous.input,
            ms: 0.0,
            answer: answer.map(|result| result.throughput),
        });
    }
    let traced_wall = origin.elapsed();
    check(report, &traced, references);

    let mut layers = LayerSamples::default();
    layers.extend_from(&tracer, "csdf.parse", "csdf.parse_ms");
    layers.extend_from(&tracer, "csdf.repetition", "csdf.repetition_ms");
    layers.extend_from(&tracer, "kperiodic.kiter_other", "kperiodic.kiter_other_ms");

    let mut replayer = Tracer::new(Instant::now());
    let mut replay_counts = ReplayCounts::default();
    let replay_started = Instant::now();
    for (op, input) in (0..inputs.len()).cycle().enumerate() {
        match replay_input(
            &mut replayer,
            op as u64,
            &inputs[input].text,
            &mut replay_counts,
        ) {
            Ok(throughput) if Some(throughput) == references[input] => {}
            Ok(throughput) => report.fail(format!(
                "replay of input {input}: K-Iter gave {throughput}, reference {:?}",
                references[input]
            )),
            Err(error) => report.fail(format!("replay of input {input}: {error}")),
        }
        report.attempted += 1;
        if replay_started.elapsed() >= third {
            break;
        }
    }
    replay_counts.report(report, &replayer, &mut layers);
    layers.report(report);
    report.layer_self_times(&tracer, untraced.len());
    report.metric(
        "trace.overhead_ratio",
        ratio(traced_wall.as_secs_f64(), untraced_wall.as_secs_f64()),
    );
    report.spans(&tracer);
    report.spans(&replayer);
}

/// One traced operation: `csdf.parse`, a separate `csdf.repetition` (the
/// K-Iter call computes its own, which cannot be timed from outside), and
/// `kperiodic.kiter`, split into the pipeline's own build/patch/solve
/// totals (`*_in_kiter`, apart from the replay's spans of the direct calls)
/// and the rest (`kperiodic.kiter_other`).
pub fn traced_op(tracer: &mut Tracer, op: u64, text: &str) -> Result<KIterResult, String> {
    let graph = tracer
        .span("csdf.parse", op, || csdf::text::parse(text))
        .map_err(|error| error.to_string())?;
    let repetition_started = Instant::now();
    let repetition = graph.repetition_vector();
    let repetition_time = repetition_started.elapsed();
    tracer.record("csdf.repetition", op, repetition_started, Instant::now());
    repetition.map_err(|error| error.to_string())?;

    let kiter = tracer.begin("kperiodic.kiter", op);
    let mut pipeline = EvaluationPipeline::new(AnalysisOptions::default());
    let options = KIterOptions {
        record_history: true,
        ..KIterOptions::default()
    };
    let result = kiter_with_pipeline(&graph, &options, &mut pipeline);
    tracer.end(kiter);
    let stats = *pipeline.stats();
    tracer.nested(kiter, "csdf.repetition_in_kiter", repetition_time);
    tracer.nested(kiter, "kperiodic.build_in_kiter", stats.build_time);
    tracer.nested(kiter, "kperiodic.patch_in_kiter", stats.patch_time);
    tracer.nested(kiter, "mcr.solve_in_kiter", stats.solve_time);
    let kiter_span = &tracer.spans()[kiter];
    let kiter_ns = kiter_span.end_ns - kiter_span.start_ns;
    let accounted = repetition_time + stats.build_time + stats.patch_time + stats.solve_time;
    let other = Duration::from_nanos(kiter_ns).saturating_sub(accounted);
    tracer.nested(kiter, "kperiodic.kiter_other", other);
    result.map_err(|error| error.to_string())
}

/// Counters accumulated over replayed trajectories.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    updates: Vec<ArenaUpdate>,
    iterations: Vec<f64>,
    nodes: Vec<f64>,
    arcs: Vec<f64>,
    solves: Vec<f64>,
    components: Vec<f64>,
    largest_component: Vec<f64>,
}

impl ReplayCounts {
    pub fn report(&self, report: &mut Report, replayer: &Tracer, layers: &mut LayerSamples) {
        layers.extend_from(replayer, "kperiodic.build", "kperiodic.build_ms");
        layers.extend_from(replayer, "kperiodic.patch", "kperiodic.patch_ms");
        layers.extend_from(replayer, "mcr.solve", "mcr.solve_ms");
        layers.extend_from(replayer, "mcr.scc", "mcr.scc_ms");
        let k_raises: Vec<&ArenaUpdate> =
            self.updates.iter().filter(|u| u.dirty_tasks > 0).collect();
        let dirty: Vec<f64> = k_raises.iter().map(|u| u.dirty_tasks as f64).collect();
        let reused: usize = self.updates.iter().map(|u| u.reused_buffers).sum();
        let rebuilt: usize = self.updates.iter().map(|u| u.rebuilt_buffers).sum();
        let patched = self
            .updates
            .iter()
            .filter(|u| u.assemble == AssembleMode::Patched)
            .count();
        report.metric("kperiodic.dirty_tasks", median(&dirty));
        report.metric(
            "kperiodic.buffer_reuse_ratio",
            ratio(reused as f64, (reused + rebuilt) as f64),
        );
        report.metric(
            "kperiodic.assemble_patched_ratio",
            ratio(patched as f64, self.updates.len() as f64),
        );
        report.metric("kperiodic.iterations", median(&self.iterations));
        report.metric("kperiodic.event_graph_nodes", median(&self.nodes));
        report.metric("kperiodic.event_graph_arcs", median(&self.arcs));
        report.metric("mcr.solves", median(&self.solves));
        report.metric("mcr.components", median(&self.components));
        report.metric(
            "mcr.largest_component_nodes",
            median(&self.largest_component),
        );
    }
}

/// Parses `text`, runs K-Iter with its trajectory recorded, and replays the
/// trajectory through [`replay`]; returns the certified throughput.
pub fn replay_input(
    tracer: &mut Tracer,
    op: u64,
    text: &str,
    counts: &mut ReplayCounts,
) -> Result<Throughput, String> {
    let root = tracer.begin("replay", op);
    let outcome = (|| {
        let graph = csdf::text::parse(text).map_err(|error| error.to_string())?;
        let options = KIterOptions {
            record_history: true,
            ..KIterOptions::default()
        };
        let result =
            kperiodic::kiter_with_options(&graph, &options).map_err(|error| error.to_string())?;
        replay(tracer, op, &graph, &result, counts)?;
        Ok(result.throughput)
    })();
    tracer.end(root);
    outcome
}

/// Replays a recorded K-Iter trajectory: the first periodicity vector
/// through `EventGraphArena::build`, every later one through
/// `apply_update`, each event graph through `SccDecomposition::compute` and
/// `Solver::solve`. Every replayed period must equal the recorded one.
pub fn replay(
    tracer: &mut Tracer,
    op: u64,
    graph: &CsdfGraph,
    result: &KIterResult,
    counts: &mut ReplayCounts,
) -> Result<(), String> {
    let repetition = graph
        .repetition_vector()
        .map_err(|error| error.to_string())?;
    let limits = AnalysisOptions::default().limits;
    let mut solver = Solver::new(SolverChoice::Auto);
    let mut arena: Option<EventGraphArena> = None;
    let mut components = 0;
    let mut largest = 0;
    for (index, step) in result.history.iter().enumerate() {
        let current = match arena.as_mut() {
            None => {
                let built = tracer
                    .span("kperiodic.build", op, || {
                        EventGraphArena::build(graph, &repetition, &step.periodicity, &limits)
                    })
                    .map_err(|error| error.to_string())?;
                arena.insert(built)
            }
            Some(current) => {
                let update = tracer
                    .span("kperiodic.patch", op, || {
                        current.apply_update(graph, &step.periodicity, None)
                    })
                    .map_err(|error| error.to_string())?;
                counts.updates.push(update);
                current
            }
        };
        let ratio_graph = current.ratio_graph();
        let scc = tracer.span("mcr.scc", op, || SccDecomposition::compute(ratio_graph));
        components = (0..scc.component_count())
            .filter(|&component| scc.is_cyclic_component(ratio_graph, component))
            .count();
        largest = scc.components().map(<[_]>::len).max().unwrap_or(0);
        let solved = tracer
            .span("mcr.solve", op, || solver.solve(ratio_graph))
            .map_err(|error| error.to_string())?;
        let replayed = match solved {
            CycleRatioOutcome::Finite { ratio, .. } => Some(ratio),
            _ => None,
        };
        if replayed != step.period {
            return Err(format!(
                "iteration {index}: replayed period {replayed:?}, recorded {:?}",
                step.period
            ));
        }
        if (current.node_count(), current.arc_count()) != step.event_graph_size {
            return Err(format!(
                "iteration {index}: replayed event graph size differs"
            ));
        }
    }
    let (nodes, arcs) = arena
        .as_ref()
        .map_or((0, 0), |arena| (arena.node_count(), arena.arc_count()));
    counts.iterations.push(result.iterations as f64);
    counts.nodes.push(nodes as f64);
    counts.arcs.push(arcs as f64);
    counts.solves.push(result.history.len() as f64);
    counts.components.push(components as f64);
    counts.largest_component.push(largest as f64);
    Ok(())
}
