//! Random consistent (C)SDF graph generation.
//!
//! The generator first draws a repetition vector, then derives buffer rates
//! from it so that every generated graph is consistent by construction. The
//! topology is a random connected DAG skeleton plus optional feedback edges,
//! and every task is serialised with a one-token self-loop (the convention
//! of the SDF3 benchmark the paper uses).
//!
//! Liveness is not guaranteed. A feedback edge receives
//! `marking_factor · (i_b + o_b)` initial tokens, which keeps graphs with
//! small repetition counts live, but a circuit through tasks with large
//! repetition counts can need more: with `repetition_choices` of
//! `[1, 1, 1, 2, 2, 3, 4, 60]` at 400 tasks, seeds 3 to 5 deadlock.

use csdf::{lcm_u64, CsdfError, CsdfGraph, CsdfGraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the random graph generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RandomGraphConfig {
    /// Number of tasks to generate (at least 2).
    pub tasks: usize,
    /// Number of extra forward edges beyond the connecting chain.
    pub extra_edges: usize,
    /// Number of feedback (cycle-closing) edges.
    pub feedback_edges: usize,
    /// Candidate per-task repetition counts (drawn uniformly).
    pub repetition_choices: Vec<u64>,
    /// Maximum number of phases per task (1 = plain SDF).
    pub max_phases: usize,
    /// Inclusive range of phase durations.
    pub duration_range: (u64, u64),
    /// Multiplier applied to `i_b + o_b` to compute feedback markings
    /// (2 keeps graphs with small repetition counts live, 1 makes them
    /// tight; neither guarantees liveness, see the module docs).
    pub marking_factor: u64,
    /// Whether to add one-token self-loops to every task.
    pub serialize: bool,
    /// When set, extra forward edges and non-closing feedback edges only span
    /// at most this many tasks. Bounded locality keeps the per-task buffer
    /// fan-out constant as `tasks` grows — without it, random long-range
    /// edges concentrate on few tasks and the constraint count per buffer
    /// pair stops being O(1) — which is what lets the generator emit
    /// 10k+-task graphs whose event graphs stay linear in the task count.
    pub locality: Option<usize>,
}

impl Default for RandomGraphConfig {
    fn default() -> Self {
        RandomGraphConfig {
            tasks: 8,
            extra_edges: 4,
            feedback_edges: 2,
            repetition_choices: vec![1, 2, 3, 4, 6],
            max_phases: 3,
            duration_range: (1, 10),
            marking_factor: 2,
            serialize: true,
            locality: None,
        }
    }
}

impl RandomGraphConfig {
    /// A configuration producing plain SDF graphs (single-phase tasks).
    pub fn sdf(tasks: usize) -> Self {
        RandomGraphConfig {
            tasks,
            max_phases: 1,
            ..RandomGraphConfig::default()
        }
    }

    /// A configuration producing small CSDF graphs suitable for exhaustive
    /// cross-validation against symbolic execution.
    pub fn small_csdf() -> Self {
        RandomGraphConfig {
            tasks: 4,
            extra_edges: 1,
            feedback_edges: 1,
            repetition_choices: vec![1, 2, 3],
            max_phases: 3,
            duration_range: (1, 4),
            marking_factor: 2,
            serialize: true,
            locality: None,
        }
    }

    /// A configuration for very large (10k–100k+-task, the scale CI's
    /// `scale_smoke` sweeps exercise) CSDF graphs: bounded edge locality,
    /// mostly small repetition counts and a sparse feedback
    /// structure keep both the generator and the event graph linear in the
    /// task count.
    pub fn large(tasks: usize) -> Self {
        RandomGraphConfig {
            tasks,
            extra_edges: tasks / 4,
            feedback_edges: (tasks / 64).max(2),
            repetition_choices: vec![1, 1, 1, 2, 2, 3, 4],
            max_phases: 2,
            duration_range: (1, 20),
            marking_factor: 2,
            serialize: true,
            locality: Some(16),
        }
    }
}

/// Generates a random consistent, serialised CSDF graph, live unless its
/// repetition counts outgrow the feedback markings (see the module docs).
///
/// The same `seed` always produces the same graph.
///
/// # Errors
///
/// Returns [`CsdfError`] if the configuration is degenerate (fewer than two
/// tasks) or the drawn rates overflow.
pub fn random_graph(config: &RandomGraphConfig, seed: u64) -> Result<CsdfGraph, CsdfError> {
    if config.tasks < 2 {
        return Err(CsdfError::EmptyGraph);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = CsdfGraphBuilder::named(format!("random_{seed}"));

    // Draw the repetition vector and phase counts first.
    let repetition: Vec<u64> = (0..config.tasks)
        .map(|_| {
            config.repetition_choices[rng.gen_range(0..config.repetition_choices.len().max(1))]
        })
        .collect();
    let phase_counts: Vec<usize> = (0..config.tasks)
        .map(|_| rng.gen_range(1..=config.max_phases.max(1)))
        .collect();

    let mut task_ids = Vec::with_capacity(config.tasks);
    for (index, &phases) in phase_counts.iter().enumerate() {
        let durations: Vec<u64> = (0..phases)
            .map(|_| rng.gen_range(config.duration_range.0..=config.duration_range.1.max(1)))
            .collect();
        task_ids.push(builder.add_task(format!("t{index}"), durations));
    }

    // Helper: rates between two tasks so that q_u · i = q_v · o.
    let add_edge = |builder: &mut CsdfGraphBuilder,
                    rng: &mut StdRng,
                    from: usize,
                    to: usize,
                    marking_factor: u64|
     -> Result<(), CsdfError> {
        let lcm = lcm_u64(repetition[from], repetition[to]).map_err(|_| CsdfError::Overflow)?;
        let total_production = lcm / repetition[from];
        let total_consumption = lcm / repetition[to];
        let production = split_total(rng, total_production, phase_counts[from]);
        let consumption = split_total(rng, total_consumption, phase_counts[to]);
        let marking = marking_factor * (total_production + total_consumption);
        builder.add_buffer(
            task_ids[from],
            task_ids[to],
            production,
            consumption,
            marking,
        );
        Ok(())
    };

    // Connecting pipeline 0 → 1 → … → n-1 (forward edges, no initial tokens).
    for index in 1..config.tasks {
        add_edge(&mut builder, &mut rng, index - 1, index, 0)?;
    }
    // Extra forward edges, optionally locality-bounded.
    let window = config.locality.unwrap_or(config.tasks).max(1);
    for _ in 0..config.extra_edges {
        let from = rng.gen_range(0..config.tasks - 1);
        let to = rng.gen_range(from + 1..(from + 1 + window).min(config.tasks));
        add_edge(&mut builder, &mut rng, from, to, 0)?;
    }
    // Feedback edges close cycles and carry ample tokens to stay live. The
    // first one always closes the pipeline (last task back to the first), so
    // every generated graph is strongly connected and self-timed execution
    // has back-pressure; additional feedback edges are placed randomly
    // (within the locality window, when one is set).
    for feedback in 0..config.feedback_edges.max(1) {
        let (from, to) = if feedback == 0 {
            (config.tasks - 1, 0)
        } else {
            let to = rng.gen_range(0..config.tasks - 1);
            let from = rng.gen_range(to + 1..(to + 1 + window).min(config.tasks));
            (from, to)
        };
        add_edge(
            &mut builder,
            &mut rng,
            from,
            to,
            config.marking_factor.max(1),
        )?;
    }

    if config.serialize {
        for &task in &task_ids {
            builder.add_serializing_self_loop(task);
        }
    }

    builder.build()
}

/// Splits `total` into `parts` non-negative integers summing to `total`
/// (at least one part is positive when `total > 0`).
fn split_total(rng: &mut StdRng, total: u64, parts: usize) -> Vec<u64> {
    let parts = parts.max(1);
    let mut values = vec![0u64; parts];
    let mut remaining = total;
    for value in values.iter_mut().take(parts - 1) {
        let share = if remaining == 0 {
            0
        } else {
            rng.gen_range(0..=remaining)
        };
        *value = share;
        remaining -= share;
    }
    values[parts - 1] = remaining;
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_graphs_are_consistent_and_live_enough() {
        for seed in 0..20 {
            let g = random_graph(&RandomGraphConfig::default(), seed).unwrap();
            assert!(
                g.is_consistent(),
                "seed {seed} produced an inconsistent graph"
            );
            assert!(g.task_count() == 8);
            // Every task carries a self-loop.
            for task in g.task_ids() {
                assert!(
                    g.outgoing(task).iter().any(|&b| g.buffer(b).is_self_loop()),
                    "task {task} is not serialised"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = random_graph(&RandomGraphConfig::default(), 42).unwrap();
        let b = random_graph(&RandomGraphConfig::default(), 42).unwrap();
        assert_eq!(a, b);
        let c = random_graph(&RandomGraphConfig::default(), 43).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn sdf_configuration_produces_single_phase_tasks() {
        let g = random_graph(&RandomGraphConfig::sdf(10), 7).unwrap();
        assert!(g.is_sdf());
        assert_eq!(g.task_count(), 10);
    }

    #[test]
    fn degenerate_configurations_are_rejected() {
        let config = RandomGraphConfig {
            tasks: 1,
            ..RandomGraphConfig::default()
        };
        assert!(random_graph(&config, 0).is_err());
    }

    #[test]
    fn large_configuration_scales_to_ten_thousand_tasks() {
        let config = RandomGraphConfig::large(10_000);
        let g = random_graph(&config, 1).unwrap();
        assert_eq!(g.task_count(), 10_000);
        assert!(g.is_consistent());
        // Bounded locality keeps the buffer fan-out per task constant: no
        // quadratic concentration of buffers on few tasks.
        let max_degree = g
            .task_ids()
            .map(|t| g.outgoing(t).len() + g.incoming(t).len())
            .max()
            .unwrap();
        assert!(
            max_degree <= 64,
            "locality bound violated: max degree {max_degree}"
        );
    }

    #[test]
    fn locality_bounds_edge_span() {
        let config = RandomGraphConfig {
            tasks: 200,
            extra_edges: 300,
            feedback_edges: 20,
            locality: Some(8),
            ..RandomGraphConfig::default()
        };
        let g = random_graph(&config, 3).unwrap();
        let mut closing_edges = 0;
        for (_, buffer) in g.buffers() {
            let span = buffer.source().index().abs_diff(buffer.target().index());
            if span > 8 {
                closing_edges += 1;
                // Only the pipeline-closing feedback edge may span the graph.
                assert_eq!((buffer.source().index(), buffer.target().index()), (199, 0));
            }
        }
        assert!(closing_edges <= 1);
    }

    #[test]
    fn high_repetition_counts_can_deadlock() {
        let config = RandomGraphConfig {
            repetition_choices: vec![1, 1, 1, 2, 2, 3, 4, 60],
            ..RandomGraphConfig::large(400)
        };
        for seed in 3..=5 {
            let graph = random_graph(&config, seed).unwrap();
            assert!(graph.is_consistent());
            let result = kperiodic::optimal_throughput(&graph).unwrap();
            assert_eq!(
                result.throughput,
                csdf::Throughput::Deadlocked,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn split_total_preserves_the_sum() {
        let mut rng = StdRng::seed_from_u64(1);
        for total in [0u64, 1, 5, 100] {
            for parts in 1..5 {
                let values = split_total(&mut rng, total, parts);
                assert_eq!(values.len(), parts);
                assert_eq!(values.iter().sum::<u64>(), total);
            }
        }
    }
}
