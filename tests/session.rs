//! Integration and property tests for the long-lived analysis-session /
//! design-space-exploration stack (ISSUE 5): a mutated-in-place session must
//! be **bit-identical** — throughput, periodicity vector K, iteration count,
//! critical tasks — to a from-scratch evaluation of the mutated graph, for
//! random capacity/token edits in both directions, including deadlocking
//! capacities.

use proptest::prelude::*;

use kiter::explore::{ParetoSweep, ScenarioSet};
use kiter::generators::{random_graph, RandomGraphConfig};
use kiter::model::transform::bound_all_buffers_tracked;
use kiter::model::{text, BufferId};
use kiter::{
    kiter_with_options, kiter_with_pipeline, optimal_throughput, AnalysisSession,
    EvaluationPipeline, KIterOptions,
};

/// Deterministic xorshift so edit sequences are reproducible per seed.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// The ISSUE-5 acceptance property: a session whose bounded graph is
    /// mutated in place through random capacity edits (both directions,
    /// including capacities small enough to deadlock) and random marking
    /// edits stays bit-identical to a cold `kiter_with_options` run on a
    /// copy of the mutated graph — same throughput, K, iteration count and
    /// critical tasks — while only ever building its arena once.
    #[test]
    fn mutated_sessions_are_bit_identical_to_cold_evaluations(
        seed in 0u64..5_000,
        edits in 3usize..7,
    ) {
        let graph = random_graph(&RandomGraphConfig::small_csdf(), seed).expect("generator");
        let bounded = bound_all_buffers_tracked(&graph, |_, b| {
            2 * (b.total_production() + b.total_consumption()) + b.initial_tokens()
        })
        .expect("bounding");
        let pairs: Vec<(BufferId, BufferId)> = bounded.bounded_pairs().collect();
        prop_assert!(!pairs.is_empty());

        let mut session =
            AnalysisSession::new(bounded.graph().clone(), KIterOptions::default())
                .expect("session");
        let mut reference = bounded.graph().clone();
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;

        for _ in 0..edits {
            // A batch of 1–3 mutations between evaluations.
            for _ in 0..1 + xorshift(&mut state) % 3 {
                let (forward, reverse) = pairs[(xorshift(&mut state) % pairs.len() as u64) as usize];
                if xorshift(&mut state) % 3 == 0 {
                    // Marking edit on the forward buffer, both directions.
                    let tokens = xorshift(&mut state) % 6;
                    session.set_initial_tokens(forward, tokens).expect("marking edit");
                    reference.set_initial_tokens(forward, tokens).expect("marking edit");
                } else {
                    // Capacity edit: the floor is the forward marking, so
                    // small deltas cover deadlocking capacities.
                    let marking = reference.buffer(forward).initial_tokens();
                    let capacity = marking + xorshift(&mut state) % 12;
                    session.set_capacity(forward, reverse, capacity).expect("capacity edit");
                    reference.set_capacity(forward, reverse, capacity).expect("capacity edit");
                }
            }
            let from_session = session.evaluate().expect("session evaluation");
            let cold = kiter_with_options(&reference, &KIterOptions::default())
                .expect("cold evaluation");
            prop_assert_eq!(&from_session, &cold);
        }
        // The whole history of mutations never forced a rebuild.
        prop_assert_eq!(session.stats().full_builds, 1);
        prop_assert_eq!(session.solves(), edits);
    }

    /// A uniform-slack Pareto sweep — the 32-point acceptance workload at
    /// property-test scale — matches independent cold evaluations point by
    /// point.
    #[test]
    fn pareto_sweeps_match_cold_evaluations(seed in 0u64..5_000) {
        let graph = random_graph(&RandomGraphConfig::small_csdf(), seed).expect("generator");
        let sweep = ParetoSweep::uniform_slack(&graph, &[1, 2, 3, 4]).expect("sweep");
        let outcome = sweep.run().expect("run");
        for point in &outcome.points {
            let mut cold = sweep.bounded().clone();
            for &(forward, capacity) in &point.capacities {
                let reverse = cold.reverse_of(forward).expect("tracked pair");
                cold.graph_mut().set_capacity(forward, reverse, capacity).expect("resize");
            }
            let cold_result = optimal_throughput(cold.graph()).expect("cold evaluation");
            prop_assert_eq!(&point.result, &cold_result);
        }
    }
}

/// The committed SDF3 benchmark fixture replays end to end through the
/// session API: import, bound, sweep, and agree with cold evaluations.
#[test]
fn sdf3_fixture_replays_through_the_session_api() {
    let xml = include_str!("../crates/csdf/tests/fixtures/modem.sdf3.xml");
    let imported = text::parse_sdf3_xml(xml).expect("fixture imports");
    let graph = kiter::model::transform::serialize_tasks(&imported).expect("serialises");

    let unbounded = optimal_throughput(&graph).expect("kiter");
    assert!(
        matches!(unbounded.throughput, kiter::Throughput::Finite(_)),
        "fixture must have finite throughput, got {}",
        unbounded.throughput
    );

    let sweep = ParetoSweep::uniform_slack(&graph, &[1, 2, 4, 8]).expect("sweep");
    let outcome = sweep.run().expect("run");
    for pair in outcome.points.windows(2) {
        assert!(pair[1].throughput() >= pair[0].throughput());
    }
    // Generous capacities recover the unbounded optimum.
    assert_eq!(
        outcome.points.last().expect("points").throughput(),
        unbounded.throughput
    );
    for point in &outcome.points {
        let mut cold = sweep.bounded().clone();
        for &(forward, capacity) in &point.capacities {
            let reverse = cold.reverse_of(forward).expect("tracked");
            cold.graph_mut()
                .set_capacity(forward, reverse, capacity)
                .expect("resize");
        }
        assert_eq!(
            point.result,
            optimal_throughput(cold.graph()).expect("cold"),
            "slack {} diverged",
            point.label
        );
    }
}

/// Scenario sets are the replay vehicle for marking studies: outcomes match
/// cold evaluations, in input order, on the worker pool and on one borrowed
/// session alike.
#[test]
fn scenario_sets_replay_marking_studies() {
    let xml = include_str!("../crates/csdf/tests/fixtures/modem.sdf3.xml");
    let imported = text::parse_sdf3_xml(xml).expect("fixture imports");
    let graph = kiter::model::transform::serialize_tasks(&imported).expect("serialises");
    let ctrl = BufferId::new(4); // the rate-limiting return channel

    let mut scenarios = ScenarioSet::new(graph.clone());
    for tokens in [2u64, 4, 8, 16] {
        scenarios.add(format!("ctrl={tokens}"), vec![(ctrl, tokens)]);
    }
    let outcomes = scenarios.run().expect("run");
    let mut session =
        AnalysisSession::new(graph.clone(), KIterOptions::default()).expect("session");
    let borrowed = scenarios
        .run_on_session(&mut session)
        .expect("borrowed run");
    assert_eq!(outcomes, borrowed);
    for (outcome, tokens) in outcomes.iter().zip([2u64, 4, 8, 16]) {
        let mut cold = graph.clone();
        cold.set_initial_tokens(ctrl, tokens).expect("marking");
        assert_eq!(
            outcome.result,
            optimal_throughput(&cold).expect("cold"),
            "scenario {tokens}"
        );
    }
    // More control tokens can only help.
    for pair in outcomes.windows(2) {
        assert!(pair[1].result.throughput >= pair[0].result.throughput);
    }
}

/// K-Iter warm-starts each Howard solve from the previous iteration's
/// policy, but only within one run: a pipeline or session reused after other
/// graphs and other markings returns exactly the `KIterResult` a fresh run
/// returns — iteration count, periodicity vector, critical tasks and the
/// recorded trajectory included.
#[test]
fn reused_pipelines_and_sessions_match_fresh_runs() {
    let options = KIterOptions {
        record_history: true,
        ..KIterOptions::default()
    };
    // A few tasks with q_t of 60 or 120 put the `K = q` event graph far
    // beyond K-Iter's jump factor at the start (3k–5k nodes against 150),
    // so the runs take paper updates, each warm-started, before K-Iter
    // jumps to `K = q`.
    let config = RandomGraphConfig {
        repetition_choices: vec![1, 1, 1, 2, 2, 3, 4, 60, 120],
        ..RandomGraphConfig::large(100)
    };
    let graphs: Vec<_> = (2..5u64)
        .map(|seed| random_graph(&config, seed).expect("generator"))
        .collect();
    let mut pipeline = EvaluationPipeline::new(options.analysis);
    let mut longest = 0;
    for round in 0..2u64 {
        for graph in &graphs {
            let mut graph = graph.clone();
            if round == 1 {
                // A marking edit: the same structure, so the pipeline
                // patches its arena instead of rebuilding it.
                let buffer = BufferId::new(graph.buffer_count() / 2);
                let tokens = graph.buffer(buffer).initial_tokens() + 3;
                graph.set_initial_tokens(buffer, tokens).expect("marking");
            }
            let reused = kiter_with_pipeline(&graph, &options, &mut pipeline).expect("reused");
            let fresh = kiter_with_options(&graph, &options).expect("fresh");
            assert_eq!(reused, fresh, "round {round}");
            longest = longest.max(fresh.iterations);
        }
    }
    // The runs take several iterations, so warm starts did happen.
    assert!(longest >= 3, "longest run took {longest} iterations");
    assert!(pipeline.stats().howard_rounds > 0);

    // A session evaluated before and after marking edits.
    let mut session = AnalysisSession::new(graphs[0].clone(), options).expect("session");
    let mut reference = graphs[0].clone();
    session.evaluate().expect("first evaluation");
    for step in 0..3usize {
        let buffer = BufferId::new(step * reference.buffer_count() / 3);
        let tokens = reference.buffer(buffer).initial_tokens() + 1;
        session.set_initial_tokens(buffer, tokens).expect("marking");
        reference
            .set_initial_tokens(buffer, tokens)
            .expect("marking");
        let evaluated = session.evaluate().expect("session evaluation");
        let fresh = kiter_with_options(&reference, &options).expect("fresh");
        assert_eq!(evaluated, fresh, "session step {step}");
    }
}

/// The event graphs of the large locality-bounded random graphs have small
/// scaled weights: every Howard component of a 1k-task K-Iter run takes the
/// `i64` lane of the integer kernel.
#[test]
fn large_random_event_graphs_take_the_i64_lane() {
    let graph = random_graph(&RandomGraphConfig::large(1000), 0xD0C5).unwrap();
    let mut pipeline = EvaluationPipeline::new(KIterOptions::default().analysis);
    let result = kiter_with_pipeline(&graph, &KIterOptions::default(), &mut pipeline).unwrap();
    assert_eq!(result.throughput.to_string(), "15/15581");
    let lanes = pipeline.stats().lanes;
    assert!(lanes.int64 >= result.iterations as u64, "{lanes:?}");
    assert_eq!((lanes.int128, lanes.scalar), (0, 0), "{lanes:?}");
}
