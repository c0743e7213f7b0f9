//! The flat graph model against what its builder was given: every `Task`
//! and `Buffer` view accessor, the adjacency and the totals of a built
//! graph, and of the same graph parsed back from its text, must return
//! exactly the names, durations, rates and markings handed to
//! `CsdfGraphBuilder`. Marking mutations must leave a graph equal to one
//! built with the new markings.

use std::collections::HashMap;

use kiter::generators::apps::{industrial_app, industrial_specs, synthetic_specs};
use kiter::generators::dsp::actual_dsp_suite;
use kiter::generators::sdf3::{generate_category, generate_category_sized, Sdf3Category};
use kiter::generators::{buffer_sized, random_graph, RandomGraphConfig};
use kiter::model::text::{parse, to_text};
use kiter::model::transform::bound_all_buffers_tracked;
use kiter::model::{BufferId, CsdfError, CsdfGraph, CsdfGraphBuilder, TaskId};

/// One buffer as handed to the builder: source and target task indices,
/// production, consumption and marking.
type BufferSpec = (usize, usize, Vec<u64>, Vec<u64>, u64);

/// A graph as the plain values handed to the builder.
#[derive(Debug, Clone)]
struct Spec {
    name: String,
    tasks: Vec<(String, Vec<u64>)>,
    buffers: Vec<BufferSpec>,
}

impl Spec {
    /// The builder inputs that give `graph`, as owned values.
    fn of(graph: &CsdfGraph) -> Spec {
        Spec {
            name: graph.name().to_string(),
            tasks: graph
                .tasks()
                .map(|(_, task)| (task.name().to_string(), task.durations().to_vec()))
                .collect(),
            buffers: graph
                .buffers()
                .map(|(_, buffer)| {
                    (
                        buffer.source().index(),
                        buffer.target().index(),
                        buffer.production().to_vec(),
                        buffer.consumption().to_vec(),
                        buffer.initial_tokens(),
                    )
                })
                .collect(),
        }
    }

    fn build(&self) -> CsdfGraph {
        let mut builder = CsdfGraphBuilder::named(self.name.clone());
        for (name, durations) in &self.tasks {
            builder.add_task(name.clone(), durations.clone());
        }
        for (source, target, production, consumption, tokens) in &self.buffers {
            builder.add_buffer(
                TaskId::new(*source),
                TaskId::new(*target),
                production.clone(),
                consumption.clone(),
                *tokens,
            );
        }
        builder.build().expect("specs describe valid graphs")
    }
}

fn assert_views_match(graph: &CsdfGraph, spec: &Spec, what: &str) {
    assert_eq!(graph.name(), spec.name, "{what}");
    assert_eq!(graph.task_count(), spec.tasks.len(), "{what}");
    assert_eq!(graph.buffer_count(), spec.buffers.len(), "{what}");

    let mut total_phases = 0;
    let mut first_index = HashMap::new();
    for (index, (name, durations)) in spec.tasks.iter().enumerate() {
        let id = TaskId::new(index);
        let task = graph.task(id);
        assert_eq!(task.name(), name, "{what}: task {index}");
        assert_eq!(
            task.durations(),
            durations.as_slice(),
            "{what}: task {index}"
        );
        assert_eq!(task.phase_count(), durations.len(), "{what}: task {index}");
        for (phase, &duration) in durations.iter().enumerate() {
            assert_eq!(task.duration(phase), duration, "{what}: task {index}");
        }
        assert_eq!(task.total_duration(), durations.iter().sum::<u64>());
        assert_eq!(task.is_sdf(), durations.len() == 1);
        assert_eq!(graph.try_task(id), Ok(task));
        let first = first_index.entry(name.as_str()).or_insert(index);
        assert_eq!(graph.find_task(name), Some(TaskId::new(*first)), "{what}");
        total_phases += durations.len();
    }
    assert_eq!(graph.total_phase_count(), total_phases, "{what}");
    let task_views: Vec<_> = graph.tasks().collect();
    let task_ids: Vec<_> = graph.task_ids().collect();
    assert_eq!(task_views.len(), spec.tasks.len());
    for ((id, task), expected) in task_views.into_iter().zip(task_ids) {
        assert_eq!((id, task), (expected, graph.task(expected)));
    }

    for (index, (source, target, production, consumption, tokens)) in
        spec.buffers.iter().enumerate()
    {
        let id = BufferId::new(index);
        let buffer = graph.buffer(id);
        assert_eq!(
            buffer.source(),
            TaskId::new(*source),
            "{what}: buffer {index}"
        );
        assert_eq!(
            buffer.target(),
            TaskId::new(*target),
            "{what}: buffer {index}"
        );
        assert_eq!(buffer.production(), production.as_slice(), "{what}");
        assert_eq!(buffer.consumption(), consumption.as_slice(), "{what}");
        assert_eq!(buffer.initial_tokens(), *tokens, "{what}: buffer {index}");
        for (phase, &rate) in production.iter().enumerate() {
            assert_eq!(buffer.production_at(phase), rate);
        }
        for (phase, &rate) in consumption.iter().enumerate() {
            assert_eq!(buffer.consumption_at(phase), rate);
        }
        assert_eq!(buffer.total_production(), production.iter().sum::<u64>());
        assert_eq!(buffer.total_consumption(), consumption.iter().sum::<u64>());
        assert_eq!(buffer.is_self_loop(), source == target);
        assert_eq!(graph.try_buffer(id), Ok(buffer));
        // Every buffer whose source is this one's target is a candidate
        // reverse; the relation is the spec's, both ways.
        for &other in graph.outgoing(TaskId::new(*target)) {
            let (o_source, o_target, o_production, o_consumption, _) = &spec.buffers[other.index()];
            let expected = o_source == target
                && o_target == source
                && o_production == consumption
                && o_consumption == production;
            assert_eq!(
                graph.buffer(other).is_reverse_of(buffer),
                expected,
                "{what}"
            );
            assert_eq!(
                buffer.is_reverse_of(graph.buffer(other)),
                expected,
                "{what}"
            );
        }
    }
    let buffer_views: Vec<_> = graph.buffers().collect();
    assert_eq!(buffer_views.len(), spec.buffers.len());
    for ((id, buffer), expected) in buffer_views.into_iter().zip(graph.buffer_ids()) {
        assert_eq!((id, buffer), (expected, graph.buffer(expected)));
    }

    let mut outgoing = vec![Vec::new(); spec.tasks.len()];
    let mut incoming = vec![Vec::new(); spec.tasks.len()];
    for (index, buffer) in spec.buffers.iter().enumerate() {
        outgoing[buffer.0].push(BufferId::new(index));
        incoming[buffer.1].push(BufferId::new(index));
    }
    for (task, (outgoing, incoming)) in outgoing.into_iter().zip(incoming).enumerate() {
        let id = TaskId::new(task);
        assert_eq!(graph.outgoing(id), outgoing, "{what}: task {task}");
        assert_eq!(graph.incoming(id), incoming, "{what}: task {task}");
        let incident: Vec<BufferId> = outgoing.into_iter().chain(incoming).collect();
        assert_eq!(graph.incident(id), incident, "{what}: task {task}");
    }

    let tokens: u128 = spec.buffers.iter().map(|b| u128::from(b.4)).sum();
    assert_eq!(graph.total_initial_tokens(), tokens, "{what}");
    let sdf = spec.tasks.iter().all(|(_, durations)| durations.len() == 1);
    assert_eq!(graph.is_sdf(), sdf, "{what}");
    let unit_rates = spec
        .buffers
        .iter()
        .all(|b| b.2.iter().sum::<u64>() == 1 && b.3.iter().sum::<u64>() == 1);
    assert_eq!(graph.is_hsdf(), sdf && unit_rates, "{what}");
    assert!(graph.try_task(TaskId::new(spec.tasks.len())).is_err());
    assert!(graph.try_buffer(BufferId::new(spec.buffers.len())).is_err());
}

/// Every generator family, small sizes.
fn generated_graphs() -> Vec<(String, CsdfGraph)> {
    let mut graphs = Vec::new();
    for (family, config) in [
        ("sdf", RandomGraphConfig::sdf(12)),
        ("small_csdf", RandomGraphConfig::small_csdf()),
        ("default", RandomGraphConfig::default()),
        ("large", RandomGraphConfig::large(300)),
    ] {
        for seed in 0..4 {
            let graph = random_graph(&config, seed).expect("random graphs generate");
            graphs.push((format!("random/{family}/{seed}"), graph));
        }
    }
    for category in Sdf3Category::all() {
        let plain = generate_category(category, 2, 0xDAC1).expect("categories generate");
        let sized = generate_category_sized(category, 2, 0xDAC1).expect("categories generate");
        for (index, graph) in plain.into_iter().enumerate() {
            graphs.push((format!("{}#{index}", category.name()), graph));
        }
        for (index, graph) in sized.into_iter().enumerate() {
            graphs.push((format!("{}+sized#{index}", category.name()), graph));
        }
    }
    for spec in industrial_specs().into_iter().chain(synthetic_specs()) {
        let graph = industrial_app(&spec).expect("apps generate");
        let sized = buffer_sized(&graph, 2).expect("apps size");
        graphs.push((format!("{}+sized", spec.name), sized));
        graphs.push((spec.name.to_string(), graph));
    }
    for (index, graph) in actual_dsp_suite()
        .expect("DSP suite builds")
        .into_iter()
        .enumerate()
    {
        graphs.push((format!("dsp#{index}"), graph));
    }
    graphs
}

/// A xorshift generator, so the random specs need no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// A valid spec drawn at random, not read from any graph: names of mixed
/// widths (multi-byte ones and a duplicate-looking prefix among them),
/// phase counts from 1 to 5, rates and markings up to the limits.
fn random_spec(seed: u64) -> Spec {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let stems = ["a", "task", "é", "βuffer", "日本", "x_1"];
    let tasks: Vec<(String, Vec<u64>)> = (0..1 + rng.below(12))
        .map(|index| {
            let name = format!("{}{index}", stems[rng.below(stems.len())]);
            let durations = (0..1 + rng.below(5)).map(|_| rng.next() % 100).collect();
            (name, durations)
        })
        .collect();
    let rate = |rng: &mut Rng| match rng.below(4) {
        0 => 0,
        1 => u64::MAX / 8,
        _ => 1 + rng.next() % 9,
    };
    let buffers = (0..rng.below(20))
        .map(|_| {
            let (source, target) = (rng.below(tasks.len()), rng.below(tasks.len()));
            // The last rate is never zero, so no total is.
            let mut production: Vec<u64> =
                (0..tasks[source].1.len()).map(|_| rate(&mut rng)).collect();
            let mut consumption: Vec<u64> =
                (0..tasks[target].1.len()).map(|_| rate(&mut rng)).collect();
            *production.last_mut().unwrap() = 1 + rng.next() % 9;
            *consumption.last_mut().unwrap() = 1 + rng.next() % 9;
            let tokens = match rng.below(3) {
                0 => u64::MAX - rng.next() % 3,
                _ => rng.next() % 50,
            };
            (source, target, production, consumption, tokens)
        })
        .collect();
    Spec {
        name: format!("random_spec_{seed}"),
        tasks,
        buffers,
    }
}

#[test]
fn views_return_what_the_builder_was_given_on_every_generator_family() {
    for (what, graph) in generated_graphs() {
        let spec = Spec::of(&graph);
        let rebuilt = spec.build();
        assert_eq!(rebuilt, graph, "{what}: rebuilt from its builder inputs");
        assert_views_match(&rebuilt, &spec, &what);
        let parsed = parse(&to_text(&rebuilt)).expect("round trip");
        assert_views_match(&parsed, &spec, &format!("{what} (parsed)"));
    }
}

#[test]
fn views_return_what_the_builder_was_given_on_random_specs() {
    for seed in 0..300 {
        let spec = random_spec(seed);
        let graph = spec.build();
        assert_views_match(&graph, &spec, &spec.name);
        assert_views_match(&graph.clone(), &spec, &spec.name);
        let parsed = parse(&to_text(&graph)).expect("round trip");
        assert_views_match(&parsed, &spec, &format!("{} (parsed)", spec.name));
    }
}

#[test]
fn mutated_markings_equal_a_graph_built_with_them() {
    for (what, graph) in generated_graphs() {
        let mut spec = Spec::of(&graph);
        let mut mutated = graph.clone();
        for index in (0..graph.buffer_count()).step_by(3) {
            let tokens = spec.buffers[index].4 + 1 + index as u64;
            let previous = mutated
                .set_initial_tokens(BufferId::new(index), tokens)
                .expect("the buffer exists");
            assert_eq!(previous, spec.buffers[index].4, "{what}");
            spec.buffers[index].4 = tokens;
        }
        let rebuilt = spec.build();
        assert_eq!(mutated, rebuilt, "{what}: marked in place vs rebuilt");
        assert_eq!(mutated.clone(), rebuilt, "{what}: clone");
        assert_eq!(graph == mutated, graph.buffer_count() == 0, "{what}");
        assert_views_match(&mutated, &spec, &what);
        assert_eq!(
            mutated.set_initial_tokens(BufferId::new(graph.buffer_count()), 1),
            Err(CsdfError::BufferIndexOutOfRange(graph.buffer_count()))
        );

        // Capacities are reverse-buffer markings.
        let mut bounded = bound_all_buffers_tracked(&graph, |_, buffer| {
            2 * (buffer.total_production() + buffer.total_consumption()) + buffer.initial_tokens()
        })
        .expect("generated graphs bound");
        let mut spec = Spec::of(bounded.graph());
        let pairs: Vec<(BufferId, BufferId)> = bounded.bounded_pairs().collect();
        for (step, &(forward, reverse)) in pairs.iter().enumerate().step_by(2) {
            let marking = spec.buffers[forward.index()].4;
            let capacity = marking + step as u64;
            bounded
                .graph_mut()
                .set_capacity(forward, reverse, capacity)
                .expect("a mirrored pair");
            spec.buffers[reverse.index()].4 = capacity - marking;
        }
        let rebuilt = spec.build();
        assert_eq!(bounded.graph(), &rebuilt, "{what}: capacities vs rebuilt");
        assert_eq!(&bounded.graph().clone(), bounded.graph(), "{what}");
        assert_views_match(bounded.graph(), &spec, &what);
    }
}
