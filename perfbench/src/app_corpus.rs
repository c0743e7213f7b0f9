//! `app_corpus`: hundreds of small and mid-sized application graphs, each
//! parsed and solved cold.
//!
//! The graphs are the Table-1 generator categories (with their sized-buffer
//! variants) and the five unsized industrial applications, the same for
//! every seed: drawn afresh per seed, the median graph's cost moved by a
//! fifth between seeds. The workload seed renames every graph's tasks.

use std::time::{Duration, Instant};

use csdf::{CsdfGraph, Throughput};
use csdf_baselines::{
    expansion_throughput, symbolic_execution_throughput, Budget, EvaluationStatus,
};
use csdf_generators::apps::{industrial_app, industrial_specs};
use csdf_generators::sdf3::{generate_category, generate_category_sized, Sdf3Category};
use csdf_service::parse_throughput;

use crate::inputs::{rename_tasks, timed_setup, SplitMix};
use crate::kiter_op::{report_untraced, run_traced, timed_loop, GraphInput, Profile};
use crate::report::{LayerSamples, Report};
use crate::stats::peak_rss_mb;

/// Graphs per generated category (the fixed `ActualDSP` suite has five).
const PER_CATEGORY: usize = 50;
/// The generator seed of the categories.
const CATEGORY_SEED: u64 = 0xDAC1;

/// Optimal throughputs of the industrial applications. Symbolic execution
/// and HSDF expansion do not finish on four of them within minutes (the
/// paper's "> 1 d" cells), so the answers are pinned: each was cross-checked
/// by solving K-Iter's final event graph with the parametric MCR solver in
/// place of Howard's, and JPEG2000's also matches symbolic execution.
const INDUSTRIAL: &[(&str, &str)] = &[
    ("BlackScholes", "1/40625"),
    ("Echo", "1/135475200"),
    ("JPEG2000", "1/221184"),
    ("Pdetect", "1/7920000"),
    ("H264Encoder", "1/1799424"),
];

/// The tail percentile spans tens of graphs, so it does not hinge on which
/// few graphs a seed draws slowest; the latency limit sits above the slowest
/// graph.
const PROFILE: Profile = Profile {
    tail_percentile: 95.0,
    slo_ms: 10.0,
};

struct Corpus {
    inputs: Vec<GraphInput>,
    graphs: Vec<CsdfGraph>,
}

fn generate(seed: u64) -> Corpus {
    let mut named: Vec<(String, CsdfGraph)> = Vec::new();
    for category in Sdf3Category::all() {
        let count = match category {
            Sdf3Category::ActualDsp => 5,
            _ => PER_CATEGORY,
        };
        let plain = generate_category(category, count, CATEGORY_SEED).expect("categories generate");
        let sized =
            generate_category_sized(category, count, CATEGORY_SEED).expect("categories generate");
        for (index, graph) in plain.into_iter().enumerate() {
            named.push((format!("{}#{index}", category.name()), graph));
        }
        for (index, graph) in sized.into_iter().enumerate() {
            named.push((format!("{}+sized#{index}", category.name()), graph));
        }
    }
    for spec in industrial_specs() {
        let graph = industrial_app(&spec).expect("industrial apps generate");
        named.push((spec.name.to_string(), graph));
    }
    let mut rng = SplitMix::new(seed);
    let mut inputs = Vec::with_capacity(named.len());
    let mut graphs = Vec::with_capacity(named.len());
    for (name, graph) in named {
        let text = rename_tasks(&csdf::text::to_text(&graph), &mut rng);
        inputs.push(GraphInput { name, text });
        graphs.push(graph);
    }
    Corpus { inputs, graphs }
}

/// The reference answer of every input: pinned for the industrial
/// applications, else symbolic execution, else HSDF expansion where
/// symbolic execution runs out of budget. Runs after the timed section.
fn references(corpus: &Corpus, layers: &mut LayerSamples) -> Vec<Option<Throughput>> {
    corpus
        .inputs
        .iter()
        .zip(&corpus.graphs)
        .map(|(input, graph)| {
            if let Some((_, answer)) = INDUSTRIAL.iter().find(|(name, _)| *name == input.name) {
                return Some(parse_throughput(answer).expect("pinned answers parse"));
            }
            let exact = |result: Result<csdf_baselines::MethodResult, csdf::CsdfError>| {
                result
                    .ok()
                    .filter(|result| result.status == EvaluationStatus::Exact)
                    .and_then(|result| result.throughput)
            };
            if let Some(answer) = exact(symbolic_execution_throughput(graph, &Budget::default())) {
                return Some(answer);
            }
            let started = Instant::now();
            let expansion = exact(expansion_throughput(graph, &Budget::default()));
            layers.push(
                "baselines.expansion_ms",
                started.elapsed().as_secs_f64() * 1e3,
            );
            expansion
        })
        .collect()
}

pub fn run(seed: u64, seconds: Duration, trace: bool) -> Report {
    let mut report = Report::default();
    let corpus = timed_setup(&mut report, || generate(seed));
    report.note("graphs", corpus.inputs.len().to_string());
    if trace {
        let mut layers = LayerSamples::default();
        let references = references(&corpus, &mut layers);
        layers.report(&mut report);
        run_traced(&mut report, &corpus.inputs, &references, seconds);
    } else {
        let (results, passes) = timed_loop(&corpus.inputs, seconds);
        let peak = peak_rss_mb();
        let references = references(&corpus, &mut LayerSamples::default());
        report_untraced(&mut report, PROFILE, &results, &passes, &references, peak);
    }
    report
}
