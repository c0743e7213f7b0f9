//! Property-based tests over randomly generated CSDF graphs.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

mod oracles;
use oracles::{
    duplicate_phases, maximum_cycle_mean, maximum_cycle_ratio_brute_force,
    transformed_repetition_vector,
};

use kiter::analysis::{evaluate_k_periodic, EvaluationOutcome, EventGraphLimits};
use kiter::generators::{random_graph, RandomGraphConfig};
use kiter::model::transform::bound_all_buffers_tracked;
use kiter::ratio::{maximum_cycle_ratio, CycleRatioOutcome, RatioGraph, Solver, SolverChoice};
use kiter::{
    expansion_throughput, optimal_throughput, symbolic_execution_throughput, AnalysisOptions,
    Budget, EventGraphArena, KPeriodicSchedule, PeriodicityVector, Rational, TaskId, Throughput,
};

/// Deterministic random bi-valued graph. `unit_times` restricts arc times to
/// one (the cycle-mean special case); otherwise times range over small
/// rationals *including zero and negative values*, which exercises the
/// `Infinite` / `NonPositive` outcome classification of the solvers.
fn random_ratio_graph(seed: u64, nodes: usize, arcs: usize, unit_times: bool) -> RatioGraph {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut graph = RatioGraph::new(nodes);
    for _ in 0..arcs {
        let from = (next() % nodes as u64) as usize;
        let to = (next() % nodes as u64) as usize;
        // Small integers keep every walk weight far away from i128 overflow.
        let cost = Rational::from_integer(-3 + (next() % 14) as i128);
        let time = if unit_times {
            Rational::ONE
        } else {
            Rational::new(-2 + (next() % 8) as i128, 1 + (next() % 3) as i128).unwrap()
        };
        graph.add_arc(graph.node(from), graph.node(to), cost, time);
    }
    graph
}

/// The outcome parts that must be identical across solvers (the critical
/// circuit itself may legitimately differ when several attain the maximum).
fn outcome_signature(outcome: &CycleRatioOutcome) -> (u8, Option<Rational>) {
    match outcome {
        CycleRatioOutcome::Acyclic => (0, None),
        CycleRatioOutcome::NonPositive => (1, None),
        CycleRatioOutcome::Finite { ratio, .. } => (2, Some(*ratio)),
        CycleRatioOutcome::Infinite { .. } => (3, None),
    }
}

fn small_config(max_phases: usize, tasks: usize) -> RandomGraphConfig {
    RandomGraphConfig {
        tasks,
        extra_edges: 1,
        feedback_edges: 1,
        repetition_choices: vec![1, 2, 3],
        max_phases,
        duration_range: (1, 4),
        marking_factor: 2,
        serialize: true,
        locality: None,
    }
}

/// Bounds every buffer of a random graph, then shrinks each capacity step by
/// step toward its marking until the graph deadlocks. At every step K-Iter's
/// throughput (`Deadlocked` included) must equal symbolic execution's and the
/// HSDF expansion's wherever they finish. Returns the number of steps at
/// which several circuits were under-marked at once: the unitary-K
/// evaluation reported more than one infeasible circuit, so K-Iter raised K
/// on all of them together.
fn shrink_capacities_and_compare(seed: u64, tasks: usize) -> Result<usize, TestCaseError> {
    let graph = random_graph(&small_config(2, tasks), seed).expect("generator");
    let mut bounded = bound_all_buffers_tracked(&graph, |_, b| {
        2 * (b.total_production() + b.total_consumption()) + b.initial_tokens()
    })
    .expect("bounding");
    let pairs: Vec<_> = bounded.bounded_pairs().collect();
    let budget = Budget::default();
    let mut several = 0;
    for _ in 0..12 {
        let graph = bounded.graph();
        let kiter = optimal_throughput(graph).expect("kiter");
        let references = [
            symbolic_execution_throughput(graph, &budget).expect("symbolic"),
            expansion_throughput(graph, &budget).expect("expansion"),
        ];
        for reference in references
            .iter()
            .filter_map(kiter::MethodResult::throughput)
        {
            prop_assert!(
                kiter.throughput == reference,
                "seed {}: K-Iter {} vs {}\n{}",
                seed,
                kiter.throughput,
                reference,
                graph
            );
        }
        let unitary = evaluate_k_periodic(
            graph,
            &PeriodicityVector::unitary(graph),
            &AnalysisOptions::default(),
        )
        .expect("unitary evaluation");
        if let EvaluationOutcome::Infeasible { others, .. } = &unitary.outcome {
            several += usize::from(!others.is_empty());
        }
        if kiter.throughput == Throughput::Deadlocked {
            break;
        }
        // Every capacity loses a third of its slack, at least one token.
        for &(forward, reverse) in &pairs {
            let graph = bounded.graph_mut();
            let marking = graph.buffer(forward).initial_tokens();
            let slack = graph.buffer(reverse).initial_tokens();
            let shrunk = marking + slack - (slack / 3).max(1).min(slack);
            graph
                .set_capacity(forward, reverse, shrunk)
                .expect("resize");
        }
    }
    Ok(several)
}

/// K-Iter starts at `K = q` when that event graph has at most four times the
/// unitary graph's live nodes. On these families (`q_t ≤ 3`) the full
/// expansion has at most three times the unitary graph's nodes, so every run
/// takes one iteration, at `K = q`, and must still agree with symbolic
/// execution and the HSDF expansion. Returns whether `K = q` differs from
/// the unitary vector.
fn jump_and_compare(seed: u64, tasks: usize, phases: usize) -> Result<bool, TestCaseError> {
    let graph = random_graph(&small_config(phases, tasks), seed).expect("generator");
    let q = graph.repetition_vector().expect("consistent");
    let (unitary_nodes, full_nodes) = graph.tasks().fold((0, 0), |(one, full), (task, spec)| {
        let phases = spec.phase_count() as u64;
        (one + phases, full + phases * q.get(task))
    });
    prop_assert!(full_nodes <= 3 * unitary_nodes);
    let kiter = optimal_throughput(&graph).expect("kiter");
    prop_assert!(
        kiter.iterations == 1,
        "seed {}: {} iterations",
        seed,
        kiter.iterations
    );
    prop_assert_eq!(&kiter.periodicity, &PeriodicityVector::full(&q));
    let budget = Budget::default();
    let references = [
        symbolic_execution_throughput(&graph, &budget).expect("symbolic"),
        expansion_throughput(&graph, &budget).expect("expansion"),
    ];
    for reference in references
        .iter()
        .filter_map(kiter::MethodResult::throughput)
    {
        prop_assert!(
            kiter.throughput == reference,
            "seed {}: K-Iter {} vs {}",
            seed,
            kiter.throughput,
            reference
        );
    }
    Ok(full_nodes > unitary_nodes)
}

/// [`jump_and_compare`] is not vacuous: over a fixed set of seeds, some
/// runs start above the unitary vector.
#[test]
fn some_random_runs_jump_to_the_full_expansion() {
    let jumped = (0..24u64)
        .filter(|&seed| jump_and_compare(seed, 5, 2).expect("agreement"))
        .count();
    assert!(jumped > 0, "no run jumped");
}

/// [`shrink_capacities_and_compare`] is not vacuous: over a fixed set of
/// seeds, some steps do have several under-marked circuits at once.
#[test]
fn shrinking_capacities_under_marks_several_circuits_at_once() {
    let several: usize = (0..12u64)
        .map(|seed| shrink_capacities_and_compare(seed, 5).expect("agreement"))
        .sum();
    assert!(several > 0, "no step had several infeasible circuits");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// The headline claim of the paper: K-Iter computes the *exact* maximum
    /// throughput, i.e. the value found by self-timed state-space exploration.
    #[test]
    fn kiter_equals_symbolic_execution(seed in 0u64..5_000, tasks in 3usize..6, phases in 1usize..4) {
        let graph = random_graph(&small_config(phases, tasks), seed).expect("generator");
        let kiter = optimal_throughput(&graph).expect("kiter");
        let symbolic = symbolic_execution_throughput(&graph, &Budget::default()).expect("sim");
        if let Some(reference) = symbolic.throughput() {
            prop_assert_eq!(kiter.throughput, reference);
        }
    }

    /// The start at `K = q` keeps K-Iter exact, in one iteration.
    #[test]
    fn jumped_runs_agree_with_symbolic_execution_and_expansion(seed in 0u64..5_000, tasks in 3usize..6, phases in 1usize..4) {
        jump_and_compare(seed, tasks, phases)?;
    }

    /// K-Iter raises K on every infeasible policy circuit at once; shrinking
    /// capacities toward deadlock must keep it exact against symbolic
    /// execution and the HSDF expansion.
    #[test]
    fn shrinking_capacities_agree_with_symbolic_execution_and_expansion(seed in 0u64..5_000, tasks in 3usize..6) {
        shrink_capacities_and_compare(seed, tasks)?;
    }

    /// Growing the periodicity vector can only improve (or keep) the
    /// K-periodic throughput bound.
    #[test]
    fn kperiodic_bound_is_monotone_in_k(seed in 0u64..5_000, tasks in 3usize..6) {
        let graph = random_graph(&small_config(2, tasks), seed).expect("generator");
        let q = graph.repetition_vector().expect("consistent");
        let options = AnalysisOptions::default();
        let unitary = evaluate_k_periodic(&graph, &PeriodicityVector::unitary(&graph), &options)
            .expect("unitary evaluation");
        let full = evaluate_k_periodic(&graph, &PeriodicityVector::full(&q), &options)
            .expect("full evaluation");
        prop_assert!(full.throughput() >= unitary.throughput());
    }

    /// Theorem 3: the transformed graph G̃ is consistent and the paper's q̃
    /// satisfies its balance equations.
    #[test]
    fn duplication_preserves_consistency(seed in 0u64..5_000, tasks in 3usize..6, k_seed in 0u64..1_000) {
        let graph = random_graph(&small_config(3, tasks), seed).expect("generator");
        let q = graph.repetition_vector().expect("consistent");
        // Derive a pseudo-random periodicity vector from k_seed.
        let entries: Vec<u64> = (0..graph.task_count())
            .map(|index| 1 + ((k_seed >> (index % 8)) & 0x3))
            .collect();
        let k = PeriodicityVector::from_entries(&graph, entries).expect("valid K");
        let transformed = duplicate_phases(&graph, &k);
        prop_assert!(transformed.is_consistent());
        let q_tilde = transformed_repetition_vector(&q, &k);
        prop_assert!(q_tilde.validates(&transformed));
    }

    /// Any feasible K-periodic evaluation yields an explicit schedule at the
    /// evaluated period that keeps every buffer non-negative when replayed —
    /// at unitary K and at the vector K-Iter proves optimal.
    #[test]
    fn schedules_replay_without_negative_buffers(seed in 0u64..5_000, tasks in 3usize..5) {
        let graph = random_graph(&small_config(2, tasks), seed).expect("generator");
        let options = AnalysisOptions::default();
        let optimal = optimal_throughput(&graph).expect("kiter");
        for k in [PeriodicityVector::unitary(&graph), optimal.periodicity] {
            let evaluation = evaluate_k_periodic(&graph, &k, &options).expect("evaluate");
            let schedule = KPeriodicSchedule::compute(&graph, &k, &options).expect("compute");
            prop_assert_eq!(schedule.as_ref().map(KPeriodicSchedule::period), evaluation.period());
            if let Some(schedule) = schedule {
                prop_assert!(
                    schedule.validate(&graph, 4),
                    "schedule at K = {:?} violates a buffer:\n{}", k, graph
                );
            }
        }
    }

    /// Every MCR solver choice returns the same outcome and exact ratio on
    /// arbitrary bi-valued graphs, including arcs with zero and negative
    /// times (Howard's certificate either applies or it defers to the
    /// parametric certifier, so agreement must be bit-exact), and so does an
    /// exhaustive search over the elementary circuits.
    #[test]
    fn mcr_solvers_agree_on_random_ratio_graphs(base_seed in 0u64..50_000, nodes in 1usize..10, arcs in 1usize..28) {
        for sub in 0..24u64 {
        let seed = base_seed.wrapping_mul(131).wrapping_add(sub);
        let graph = random_ratio_graph(seed, nodes, arcs, false);
        let reference = maximum_cycle_ratio(&graph).expect("parametric");
        let brute_force = maximum_cycle_ratio_brute_force(&graph).expect("brute force");
        prop_assert!(
            outcome_signature(&reference) == outcome_signature(&brute_force),
            "brute force disagrees on seed {} ({} nodes, {} arcs): {:?} vs {:?}",
            seed, nodes, arcs, reference, brute_force
        );
        for choice in [SolverChoice::Howard, SolverChoice::Auto] {
            let outcome = Solver::new(choice).solve(&graph).expect("alternative solver");
            prop_assert!(
                outcome_signature(&reference) == outcome_signature(&outcome),
                "solver {:?} disagrees on seed {} ({} nodes, {} arcs): {:?} vs {:?}",
                choice, seed, nodes, arcs, reference, outcome
            );
            // Whatever circuits are reported must be internally consistent
            // real circuits of the graph.
            match &outcome {
                CycleRatioOutcome::Finite { ratio, cycle } => {
                    prop_assert!(cycle.time.is_positive());
                    prop_assert_eq!(cycle.cost.checked_div(&cycle.time).expect("positive time"), *ratio);
                    prop_assert_eq!(graph.path_weight(&cycle.arcs).expect("weights"), (cycle.cost, cycle.time));
                }
                CycleRatioOutcome::Infinite { cycle, others } => {
                    for circuit in std::iter::once(cycle).chain(others) {
                        prop_assert!(!circuit.time.is_positive());
                        prop_assert_eq!(graph.path_weight(&circuit.arcs).expect("weights"), (circuit.cost, circuit.time));
                        for (index, &arc) in circuit.arcs.iter().enumerate() {
                            let next = circuit.arcs[(index + 1) % circuit.arcs.len()];
                            prop_assert_eq!(graph.arc(arc).to(), graph.arc(next).from());
                            prop_assert_eq!(graph.arc(arc).from(), circuit.nodes[index]);
                        }
                    }
                }
                _ => {}
            }
        }
        }
    }

    /// One long-lived solver per choice, reused across a run of graphs (the
    /// K-Iter usage: one solve per iteration on warm scratch buffers), is
    /// *bit-identical* — not just same-ratio — to a fresh one-shot solve:
    /// same `CycleRatioOutcome` variant, same λ, same critical circuit (arcs,
    /// nodes, cost, time), on random graphs with negative and zero arc
    /// times. (The integer-vs-scalar Howard kernel equivalence is pinned by
    /// the `mcr` crate's kernel tests.)
    #[test]
    fn reused_solvers_are_bit_identical_to_fresh_ones(base_seed in 0u64..50_000, nodes in 1usize..11, arcs in 1usize..30) {
        for choice in [SolverChoice::Auto, SolverChoice::Parametric, SolverChoice::Howard] {
            let mut reused = Solver::new(choice);
            for sub in 0..12u64 {
                let seed = base_seed.wrapping_mul(193).wrapping_add(sub);
                let graph = random_ratio_graph(seed, nodes, arcs, false);
                let fresh = Solver::new(choice).solve(&graph).expect("fresh solve");
                let warm = reused.solve(&graph).expect("reused solve");
                prop_assert!(
                    fresh == warm,
                    "reused solver diverges for {:?} on seed {}: {:?} vs {:?}",
                    choice, seed, fresh, warm
                );
            }
        }
    }

    /// On unit-time graphs the maximum cycle ratio degenerates to Karp's
    /// maximum cycle mean: `Finite(r)` iff the mean is `r > 0`, `NonPositive`
    /// iff the mean exists but is not positive, `Acyclic` iff there is none.
    #[test]
    fn mcr_solvers_match_cycle_mean_on_unit_time_graphs(base_seed in 0u64..50_000, nodes in 1usize..9, arcs in 1usize..24) {
        for sub in 0..24u64 {
        let seed = base_seed.wrapping_mul(137).wrapping_add(sub);
        let graph = random_ratio_graph(seed, nodes, arcs, true);
        let mean = maximum_cycle_mean(&graph).expect("karp");
        for choice in [SolverChoice::Parametric, SolverChoice::Howard, SolverChoice::Auto] {
            let outcome = Solver::new(choice).solve(&graph).expect("solver");
            match mean {
                None => prop_assert_eq!(&outcome, &CycleRatioOutcome::Acyclic),
                Some(value) if value.is_positive() => {
                    prop_assert!(
                        outcome.ratio() == Some(value),
                        "solver {:?} on seed {}: {:?} vs mean {:?}",
                        choice, seed, outcome, value
                    );
                }
                Some(_) => {
                    prop_assert!(
                        outcome == CycleRatioOutcome::NonPositive,
                        "solver {:?} on seed {}: {:?}",
                        choice, seed, outcome
                    );
                }
            }
        }
        }
    }

    /// Tentpole invariant of the incremental event-graph pipeline: patching
    /// one arena through a random sequence of K-updates yields a
    /// [`RatioGraph`](kiter::ratio::RatioGraph) *bit-identical* (node count,
    /// arc order, exact `L`/`H` values) to a from-scratch
    /// [`EventGraphArena::build`] at every intermediate vector — including on CSDF
    /// graphs with zero-duration phases, and both with and without the dirty
    /// hint the K-Iter update rule provides.
    #[test]
    fn incremental_arena_matches_from_scratch(seed in 0u64..50_000, tasks in 3usize..7, phases in 1usize..4) {
        let config = RandomGraphConfig {
            // Zero durations exercise zero-cost arcs.
            duration_range: (0, 4),
            ..small_config(phases, tasks)
        };
        let graph = random_graph(&config, seed).expect("generator");
        let q = graph.repetition_vector().expect("consistent");
        let limits = EventGraphLimits::default();
        let mut k = PeriodicityVector::unitary(&graph);
        let mut arena = EventGraphArena::build(&graph, &q, &k, &limits).expect("base build");

        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..5u64 {
            let mut raised = Vec::new();
            for _ in 0..1 + next() % 2 {
                let task = TaskId::new((next() % tasks as u64) as usize);
                let value = k.get(task) * (1 + next() % 3);
                if k.raise(task, value).expect("valid periodicity") {
                    raised.push(task);
                }
            }
            // Alternate between the hinted dirty set and full detection.
            let hint = (step % 2 == 0).then_some(raised.as_slice());
            arena.apply_update(&graph, &k, hint).expect("patch");

            let fresh = EventGraphArena::build(&graph, &q, &k, &limits).expect("scratch build");
            prop_assert_eq!(arena.ratio_graph(), fresh.ratio_graph());
            prop_assert_eq!(arena.node_count(), fresh.node_count());
            prop_assert_eq!(arena.arc_count(), fresh.arc_count());
            prop_assert_eq!(arena.lcm_k(), fresh.lcm_k());
            for task in graph.task_ids() {
                prop_assert_eq!(arena.phase_count_of(task), fresh.phase_count_of(task));
                for phase in 0..arena.phase_count_of(task) {
                    prop_assert_eq!(arena.node_of(task, phase), fresh.node_of(task, phase));
                }
            }
        }
    }

    /// Single-node self-loop components — the smallest cyclic SCCs — are
    /// bit-identical across solver choices: each component has exactly one
    /// circuit, so Howard and the parametric method must report the same
    /// outcome *and* circuit, including loops with zero and negative times
    /// (the `Infinite` classification) and a multi-component mix where the
    /// component order decides ties.
    #[test]
    fn self_loop_components_are_bit_identical(seed in 0u64..20_000, loops in 1usize..7) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // `loops` isolated self-loops plus an acyclic chain threading them.
        let mut graph = RatioGraph::new(loops + 1);
        for node in 0..loops {
            let cost = Rational::from_integer(-2 + (next() % 9) as i128);
            let time = Rational::new(-1 + (next() % 5) as i128, 1 + (next() % 3) as i128).unwrap();
            graph.add_arc(graph.node(node), graph.node(node), cost, time);
            graph.add_arc(graph.node(node), graph.node(loops), Rational::ONE, Rational::ONE);
        }
        let reference = Solver::new(SolverChoice::Parametric)
            .solve(&graph)
            .expect("parametric solve");
        for choice in [SolverChoice::Auto, SolverChoice::Howard] {
            let solved = Solver::new(choice).solve(&graph).expect("solve");
            prop_assert!(
                reference == solved,
                "{:?} seed {}: {:?} vs {:?}",
                choice, seed, reference, solved
            );
        }
    }

    /// The 1-periodic throughput never exceeds the optimum, and the optimum's
    /// period equals the inverse of its throughput.
    #[test]
    fn periodic_bound_and_period_inversion(seed in 0u64..5_000, tasks in 3usize..6) {
        let graph = random_graph(&small_config(2, tasks), seed).expect("generator");
        let options = AnalysisOptions::default();
        let periodic = evaluate_k_periodic(&graph, &PeriodicityVector::unitary(&graph), &options)
            .expect("periodic");
        let optimal = optimal_throughput(&graph).expect("kiter");
        if let EvaluationOutcome::Feasible { throughput, .. } = periodic.outcome {
            prop_assert!(throughput <= optimal.throughput);
        }
        if let Throughput::Finite(value) = optimal.throughput {
            let period = optimal.period().expect("finite throughput has a period");
            prop_assert_eq!(
                period.checked_mul(&value).expect("no overflow"),
                Rational::ONE
            );
        }
    }

    /// SDF3 XML export/import is the identity on random CSDF graphs — same
    /// ids, names, rates, durations and markings — including `bufferSize`
    /// capacity annotations, so the XML can serve as a lossless wire format.
    #[test]
    fn sdf3_xml_round_trips_random_graphs(seed in 0u64..5_000, tasks in 3usize..7, phases in 1usize..4) {
        let graph = random_graph(&small_config(phases, tasks), seed).expect("generator");
        let round_trip = kiter::model::text::parse_sdf3_xml(
            &kiter::model::text::write_sdf3_xml(&graph),
        ).expect("exported XML re-imports");
        prop_assert_eq!(&round_trip, &graph);

        // Annotate every non-self-loop buffer with a pseudo-random capacity.
        let capacities: Vec<(kiter::BufferId, u64)> = graph
            .buffers()
            .filter(|(_, buffer)| !buffer.is_self_loop())
            .map(|(id, _)| (id, 1 + (seed ^ id.index() as u64) % 16))
            .collect();
        let xml = kiter::model::text::write_sdf3_xml_with_capacities(&graph, &capacities);
        let import = kiter::model::text::parse_sdf3_xml_import(&xml).expect("re-imports");
        prop_assert_eq!(&import.graph, &graph);
        prop_assert_eq!(&import.buffer_capacities, &capacities);
    }
}
